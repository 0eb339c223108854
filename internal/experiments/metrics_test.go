package experiments

import (
	"strconv"
	"strings"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/metrics"
	"procctl/internal/sim"
)

// TestMetricsSnapshotDeterministic is the metrics counterpart of
// TestSameSeedByteIdenticalTrace: an identical seed must yield a
// byte-identical snapshot in every rendering — the text table, the
// Prometheus exposition, and JSON. Any wall-clock read, map-order leak,
// or float formatting in the metrics path diverges here.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	render := func(seed uint64) (text, js string) {
		r := MetricsDemo(Options{Seed: seed, Seeds: 1})
		return r.Render(), r.JSON()
	}
	t1, j1 := render(42)
	t2, j2 := render(42)
	if t1 != t2 {
		t.Error("same seed produced different text renderings:\n" + firstDiffLine(t1, t2))
	}
	if j1 != j2 {
		t.Error("same seed produced different JSON renderings")
	}

	// Guard against vacuity: a different seed must move the counters.
	t3, _ := render(43)
	if t1 == t3 {
		t.Error("seeds 42 and 43 produced identical snapshots; seeding is not reaching the metrics")
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "renderings differ in length"
}

// TestMetricsAgreeWithProcStats checks that each machine-wide kernel
// total equals the sum of its one record — ProcStats per process,
// machine.CPU per processor — and that every CPU's busy and idle gauges
// add up to the time elapsed, at snapshots taken while the run is in
// flight (right after a Stall and a Kill among them) and at its end.
// A tally kept from the kernel's hooks checks the per-CPU records
// themselves, and each CPU's busy time, the leg in progress included.
func TestMetricsAgreeWithProcStats(t *testing.T) {
	cfg := machine.Multimax16()
	cfg.NumCPU = 4
	s := NewSim(Options{Seed: 11, Seeds: 1, Machine: cfg}, true)
	var hooked struct{ dispatches, switches, switchTime, reloadTime int64 }
	legStart := make([]sim.Time, cfg.NumCPU)     // when each CPU's current leg began
	busyDone := make([]sim.Duration, cfg.NumCPU) // each CPU's busy time in finished legs
	s.K.OnDispatch = func(_ *kernel.Process, cpu int, _, sw, rl sim.Duration) {
		hooked.dispatches++
		if sw > 0 {
			hooked.switches++
		}
		hooked.switchTime += int64(sw)
		hooked.reloadTime += int64(rl)
		legStart[cpu] = s.K.Now()
	}
	s.K.OnStateChange = func(p *kernel.Process, old, _ kernel.ProcState) {
		if old == kernel.Running {
			busyDone[p.LastCPU()] += s.K.Now().Sub(legStart[p.LastCPU()])
		}
	}
	a := s.LaunchNow(1, apps.Matmul(8, 2, 20*sim.Millisecond), 4)
	b := s.LaunchNow(2, apps.Matmul(6, 3, 15*sim.Millisecond), 4)
	bg := apps.Background(s.K, 2, 20*sim.Millisecond, 5*sim.Millisecond)

	checks := 0
	check := func(when string) {
		checks++
		snap := s.K.MetricsSnapshot()
		var procs struct{ dispatches, preemptions, spin, cpu int64 }
		for _, p := range s.K.Processes() {
			procs.dispatches += p.Stats.Dispatches
			procs.preemptions += p.Stats.Preemptions
			procs.spin += int64(p.Stats.SpinTime)
			procs.cpu += int64(p.Stats.CPUTime)
		}
		var cpus struct{ switches, switchTime, reloadTime int64 }
		for i, c := range s.Mac.CPUs() {
			cpus.switches += c.Switches
			cpus.switchTime += int64(c.SwitchTime)
			cpus.reloadTime += int64(c.ReloadTime)
			cpu := strconv.Itoa(i)
			wantBusy := busyDone[i]
			if s.K.RunningOn(i) != nil {
				wantBusy += s.K.Now().Sub(legStart[i])
			}
			busy := snap.Get(metrics.Name("sim_cpu_busy_micros", "cpu", cpu)).Value
			idle := snap.Get(metrics.Name("sim_cpu_idle_micros", "cpu", cpu)).Value
			if busy != int64(wantBusy) || idle < 0 || busy+idle != snap.At {
				t.Errorf("%s: cpu%d busy %d (hooks %d) + idle %d, want elapsed %d", when, i, busy, int64(wantBusy), idle, snap.At)
			}
		}
		for _, c := range []struct {
			metric string
			want   []int64 // the record's sum, then the hook tally if there is one
		}{
			{kernel.MetricDispatches, []int64{procs.dispatches, hooked.dispatches}},
			{kernel.MetricPreemptions, []int64{procs.preemptions}},
			{kernel.MetricCtxSwitches, []int64{cpus.switches, hooked.switches}},
			{kernel.MetricSwitchMicros, []int64{cpus.switchTime, hooked.switchTime}},
			{kernel.MetricReloadMicros, []int64{cpus.reloadTime, hooked.reloadTime}},
			{kernel.MetricSpinMicros, []int64{procs.spin}},
			{kernel.MetricCPUMicros, []int64{procs.cpu}},
		} {
			m := snap.Get(c.metric)
			if m == nil {
				t.Errorf("%s: %s not in the snapshot", when, c.metric)
				continue
			}
			for _, want := range c.want {
				if m.Value != want {
					t.Errorf("%s: %s = %d, want %d (records %v)", when, c.metric, m.Value, want, c.want)
				}
			}
		}
	}
	s.Eng.Every(7*sim.Millisecond, func() bool { check("periodic"); return true })
	s.Eng.Schedule(sim.Time(90*sim.Millisecond), func() {
		if !s.K.Stall(s.K.RunningOn(0), 25*sim.Millisecond) {
			t.Error("the stall was not applied")
		}
		check("after Stall")
	})
	s.Eng.Schedule(sim.Time(130*sim.Millisecond), func() {
		if !s.K.Kill(bg[0]) {
			t.Error("the kill was not applied")
		}
		check("after Kill")
	})
	if ok := s.RunUntil(func() bool { return a.Done() && b.Done() }); !ok {
		t.Fatal("run did not finish within the horizon")
	}
	check("end")

	// Guard against vacuity: the run exercised every total.
	snap := s.K.MetricsSnapshot()
	for _, name := range []string{kernel.MetricDispatches, kernel.MetricPreemptions, kernel.MetricCtxSwitches,
		kernel.MetricSwitchMicros, kernel.MetricReloadMicros, kernel.MetricSpinMicros, kernel.MetricCPUMicros} {
		if snap.Get(name).Value == 0 {
			t.Errorf("%s is 0 at the end: the run does not exercise it", name)
		}
	}
	if checks < 20 {
		t.Errorf("only %d snapshots checked", checks)
	}
}
