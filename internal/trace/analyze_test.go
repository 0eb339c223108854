package trace

import (
	"bytes"
	"strings"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/ctrl"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// release is a kernel.Script step that releases l.
func release(l *kernel.SpinLock) func(*kernel.Env) {
	return func(env *kernel.Env) { env.Release(l) }
}

// TestAttributionSpinOnPreemptedHolder pins the analyzer to a hand-
// computed schedule: one CPU, 20 ms quantum, p1 holds a lock across
// preemptions while p2 burns its whole quanta spinning on the preempted
// holder. Every number below is exact.
func TestAttributionSpinOnPreemptedHolder(t *testing.T) {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 1})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{
		Quantum: 20 * sim.Millisecond, QuantumJitter: -1,
	})
	var buf bytes.Buffer
	rec := NewRecorder(k, &buf, Meta{Seed: 1})
	l := kernel.NewSpinLock("l")
	k.SpawnResumable("holder", 1, 0, kernel.Script(kernel.Acquire(l), kernel.Compute(50*sim.Millisecond), release(l)))
	k.SpawnResumable("waiter", 2, 0, kernel.Script(kernel.Acquire(l), kernel.Compute(10*sim.Millisecond), release(l)))
	eng.RunUntilIdle()
	k.Finalize()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	att, err := ReadAttribution(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Apps) != 2 {
		t.Fatalf("apps = %d, want 2", len(att.Apps))
	}
	ms := sim.Millisecond
	// Schedule: p1 runs [0,20) [40,60) [80,90); p2 spins [20,40) [60,80)
	// with p1 runnable both times, then runs its task [90,100).
	a1, a2 := att.Apps[0], att.Apps[1]
	if a1.Useful != 50*ms || a1.Running != 50*ms || a1.ReadyWait != 40*ms || a1.Total != 90*ms {
		t.Errorf("app1 %+v", a1)
	}
	if a1.SpinPreempted != 0 || a1.SpinRunnable != 0 {
		t.Errorf("app1 spun: %+v", a1)
	}
	if a2.SpinPreempted != 40*ms {
		t.Errorf("app2 spin-on-preempted %v, want 40ms", a2.SpinPreempted)
	}
	if a2.SpinRunnable != 0 || a2.Useful != 10*ms || a2.Running != 50*ms {
		t.Errorf("app2 %+v", a2)
	}
	if a2.ReadyWait != 50*ms || a2.Total != 100*ms {
		t.Errorf("app2 off-cpu %+v", a2)
	}
	if spin := k.MetricsSnapshot().Get(kernel.MetricSpinMicros); spin == nil || spin.Value != int64(40*ms) {
		t.Errorf("kernel spin counter %v, want %d", spin, int64(40*ms))
	}
}

// TestAttributionSpinOnRunningHolder: two CPUs, so the waiter spins
// while the holder is actually running — the recoverable kind of spin.
func TestAttributionSpinOnRunningHolder(t *testing.T) {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 2})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{
		Quantum: 100 * sim.Millisecond, QuantumJitter: -1,
	})
	var buf bytes.Buffer
	rec := NewRecorder(k, &buf, Meta{Seed: 1})
	l := kernel.NewSpinLock("l")
	k.SpawnResumable("holder", 1, 0, kernel.Script(kernel.Acquire(l), kernel.Compute(30*sim.Millisecond), release(l)))
	k.SpawnResumable("waiter", 2, 0, kernel.Script(
		kernel.Compute(sim.Millisecond),
		kernel.Acquire(l),
		kernel.Compute(5*sim.Millisecond),
		release(l),
	))
	eng.RunUntilIdle()
	k.Finalize()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	att, err := ReadAttribution(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ms := sim.Millisecond
	a2 := att.Apps[1]
	// p2 computes [0,1), spins [1,30) on the running holder, then holds
	// for [30,35).
	if a2.SpinRunnable != 29*ms || a2.SpinPreempted != 0 {
		t.Errorf("app2 spin %+v", a2)
	}
	if a2.Useful != 6*ms || a2.Total != 35*ms || a2.ReadyWait != 0 {
		t.Errorf("app2 %+v", a2)
	}
	out := att.Render()
	if !strings.Contains(out, "spin-run") || !strings.Contains(out, "app 2") {
		t.Errorf("render:\n%s", out)
	}
}

// TestAttributionRequiresHeader: analysis of a legacy headerless trace
// must fail loudly, not silently mis-aggregate.
func TestAttributionRequiresHeader(t *testing.T) {
	in := `{"t":0,"kind":"spawn","pid":1,"app":1,"name":"p"}` + "\n"
	if _, err := ReadAttribution(strings.NewReader(in)); err == nil {
		t.Error("headerless trace accepted")
	}
	if _, err := ReadAttribution(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
}

// runMix records the Figure 4-style mix (matmul + FFT, 12 processes
// each, plus uncontrollable background load) on the paper's 16-CPU
// Multimax for 2 virtual seconds and returns its attribution alongside
// the kernel's own accounting counters.
func runMix(t *testing.T, seed uint64, control bool) (*Attribution, map[string]int64, []byte) {
	t.Helper()
	eng := sim.NewEngine(seed)
	mac := machine.New(machine.Multimax16())
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{})
	var buf bytes.Buffer
	rec := NewRecorder(k, &buf, Meta{Seed: seed, Control: control})
	cfg := threads.Config{Procs: 12}
	if control {
		cfg.Controller = ctrl.NewServer(k, 0)
	}
	threads.Launch(k, 1, apps.PaperMatmul(), cfg)
	threads.Launch(k, 2, apps.PaperFFT(), cfg)
	apps.Background(k, 2, 20*sim.Millisecond, 30*sim.Millisecond)
	eng.Run(sim.Time(0).Add(2 * sim.Second))
	k.Finalize()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	att, err := ReadAttribution(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counters := make(map[string]int64)
	snap := k.MetricsSnapshot()
	for _, name := range []string{kernel.MetricCPUMicros, kernel.MetricSpinMicros,
		kernel.MetricSwitchMicros, kernel.MetricReloadMicros} {
		m := snap.Get(name)
		if m == nil {
			t.Fatalf("kernel counter %s missing", name)
		}
		counters[name] = m.Value
	}
	return att, counters, buf.Bytes()
}

// TestAttributionMatchesKernelCounters is the books-balance check: the
// trace-derived decomposition must reproduce the kernel's own metrics
// exactly, and each app's categories must sum to its on-CPU and total
// time.
func TestAttributionMatchesKernelCounters(t *testing.T) {
	att, counters, _ := runMix(t, 1, false)
	var running, spin, sw, rl sim.Duration
	for _, a := range att.Apps {
		running += a.Running
		spin += a.SpinPreempted + a.SpinRunnable
		sw += a.Switch
		rl += a.Reload
		if got := a.Useful + a.SpinPreempted + a.SpinRunnable + a.Switch + a.Reload; got != a.Running {
			t.Errorf("app %d: on-CPU categories sum to %v, Running is %v", a.App, got, a.Running)
		}
		if got := a.Running + a.ReadyWait + a.Suspended + a.OtherBlocked; got != a.Total {
			t.Errorf("app %d: categories sum to %v, Total is %v", a.App, got, a.Total)
		}
		if a.Useful <= 0 {
			t.Errorf("app %d: no useful work attributed: %+v", a.App, a)
		}
	}
	if int64(running) != counters[kernel.MetricCPUMicros] {
		t.Errorf("Running sum %d, kernel cpu_micros %d", int64(running), counters[kernel.MetricCPUMicros])
	}
	if int64(spin) != counters[kernel.MetricSpinMicros] {
		t.Errorf("spin sum %d, kernel spin_micros %d", int64(spin), counters[kernel.MetricSpinMicros])
	}
	if int64(sw) != counters[kernel.MetricSwitchMicros] {
		t.Errorf("switch sum %d, kernel switch_micros %d", int64(sw), counters[kernel.MetricSwitchMicros])
	}
	if int64(rl) != counters[kernel.MetricReloadMicros] {
		t.Errorf("reload sum %d, kernel reload_micros %d", int64(rl), counters[kernel.MetricReloadMicros])
	}
}

// TestControlReducesSpinOnPreemptedHolder is the paper's core claim,
// read off the traces (acceptance criterion): on the Figure 4 mix at
// seed 1, process control strictly reduces time spent spinning on
// preempted lock holders.
func TestControlReducesSpinOnPreemptedHolder(t *testing.T) {
	without, _, _ := runMix(t, 1, false)
	with, _, _ := runMix(t, 1, true)
	sum := func(a *Attribution) (preempted, suspended sim.Duration) {
		for _, app := range a.Apps {
			preempted += app.SpinPreempted
			suspended += app.Suspended
		}
		return preempted, suspended
	}
	pOff, sOff := sum(without)
	pOn, sOn := sum(with)
	if pOff <= pOn {
		t.Errorf("spin-on-preempted-holder: %v without control, %v with — control should strictly reduce it", pOff, pOn)
	}
	if pOff == 0 {
		t.Error("no spin-on-preempted-holder time in the uncontrolled oversubscribed mix; the scenario is vacuous")
	}
	if sOn == 0 {
		t.Error("control run attributed no controlled-suspension wait")
	}
	if sOff != 0 {
		t.Errorf("uncontrolled run attributed %v of suspension", sOff)
	}
}
