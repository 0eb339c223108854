package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/kernel"
	"procctl/internal/metrics"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// fastOpts keeps test runs short: one seed, aggressive control timing.
func fastOpts() Options {
	return Options{
		Seed:         7,
		Seeds:        1,
		ScanInterval: 250 * sim.Millisecond,
		PollInterval: sim.Second,
	}
}

func TestSoloBaseline(t *testing.T) {
	o := fastOpts()
	e := Solo(o, apps.PaperMatmul(), 1, false)
	w := apps.PaperMatmul().TotalWork()
	// One process on an idle machine: elapsed ≈ work + queue overheads.
	if e < w || e > w+w/4 {
		t.Errorf("1-proc elapsed %v vs work %v", e, w)
	}
}

func TestFig1Shape(t *testing.T) {
	o := fastOpts()
	r := Fig1(o, []int{8, 24})
	mm8, ff8 := r.SpeedupAt(8)
	mm24, ff24 := r.SpeedupAt(24)
	// Paper, Figure 1: past the processor count the speed-up of both
	// applications collapses.
	if !(mm24 < mm8*0.8) {
		t.Errorf("matmul speed-up did not collapse: %0.2f at 8, %0.2f at 24", mm8, mm24)
	}
	if !(ff24 < ff8*0.8) {
		t.Errorf("fft speed-up did not collapse: %0.2f at 8, %0.2f at 24", ff8, ff24)
	}
	if mm8 < 6 || ff8 < 6 {
		t.Errorf("near-linear region broken: %0.2f / %0.2f at 8 procs", mm8, ff8)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 1") {
		t.Error("Render missing title")
	}
	if _, ff := r.SpeedupAt(99); ff != 0 {
		t.Error("SpeedupAt for unswept point should be 0")
	}
}

func TestFig3Shape(t *testing.T) {
	o := fastOpts()
	r := Fig3(o, []int{16, 24}, "fft", "matmul")
	for _, app := range []string{"fft", "matmul"} {
		c := r.Curve(app)
		if c == nil {
			t.Fatalf("missing curve %s", app)
		}
		off16, on16 := c.At(16)
		off24, on24 := c.At(24)
		// Up to the processor count the two packages match (the
		// paper's "overhead is negligible").
		if diff := (on16 - off16) / off16; diff < -0.1 || diff > 0.1 {
			t.Errorf("%s at 16 procs: off %0.2f vs on %0.2f", app, off16, on16)
		}
		// Past it, the original collapses and control holds.
		if !(off24 < off16*0.8) {
			t.Errorf("%s original did not degrade: %0.2f -> %0.2f", app, off16, off24)
		}
		if !(on24 > on16*0.85) {
			t.Errorf("%s controlled did not hold: %0.2f -> %0.2f", app, on16, on24)
		}
		if !(on24 > off24*1.3) {
			t.Errorf("%s control does not win at 24 procs: %0.2f vs %0.2f", app, on24, off24)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 3") {
		t.Error("Render missing title")
	}
	if r.Curve("nope") != nil {
		t.Error("unknown curve returned")
	}
}

func TestFig4And5Shape(t *testing.T) {
	o := fastOpts()
	o.PollInterval = 6 * sim.Second // the paper's value; the mix is long enough
	r := Fig4(o, nil)
	// Paper, Figure 4: fft and gauss run much longer without process
	// control. The paper's matmul "changes little"; here control helps
	// it too (DESIGN.md, "Figure 4's third row"), so all three are held.
	for _, app := range []string{"bigfft", "biggauss", "bigmatmul"} {
		off := r.ElapsedOf(app, false)
		on := r.ElapsedOf(app, true)
		if !(off > on) {
			t.Errorf("%s: no control %v should exceed control %v", app, off, on)
		}
	}
	if r.ElapsedOf("missing", false) != 0 {
		t.Error("ElapsedOf unknown app should be 0")
	}

	// Paper, Figure 5: with control the total runnable count returns to
	// the processor count shortly after each arrival; without, it
	// reaches the full 48.
	maxOn, maxOff := 0, 0
	for _, s := range r.On.Samples {
		if s.Total() > maxOn {
			maxOn = s.Total()
		}
	}
	for _, s := range r.Off.Samples {
		if s.Total() > maxOff {
			maxOff = s.Total()
		}
	}
	if maxOff != 48 {
		t.Errorf("uncontrolled peak %d, want 48", maxOff)
	}
	if maxOn >= maxOff {
		t.Errorf("controlled peak %d not below uncontrolled %d", maxOn, maxOff)
	}
	// Time-averaged controlled load stays near 16 after convergence.
	over := 0
	n := 0
	for _, s := range r.On.Samples {
		if s.At > sim.Time(25*sim.Second) && s.At < sim.Time(28*sim.Second) {
			n++
			if s.Total() > 18 {
				over++
			}
		}
	}
	if n > 0 && over > n/2 {
		t.Errorf("controlled run stayed above 18 runnable in %d/%d late samples", over, n)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 4") {
		t.Error("Render missing title")
	}
	if out := r.RenderFig5(); !strings.Contains(out, "Figure 5") {
		t.Error("RenderFig5 missing title")
	}
}

func TestPolicyComparison(t *testing.T) {
	o := fastOpts()
	// A shorter mix keeps this test quick but still overlapped.
	mix := []Fig4Arrival{
		{App: "fft", At: 0, Procs: 16},
		{App: "gauss", At: sim.Time(2 * sim.Second), Procs: 16},
		{App: "matmul", At: sim.Time(4 * sim.Second), Procs: 16},
	}
	r := PolicyComparison(o, mix)
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want 6 (5 policies + control)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Makespan <= 0 {
			t.Errorf("%s: empty makespan", row.Name)
		}
		for i, e := range row.Elapsed {
			if e <= 0 {
				t.Errorf("%s: app %d did not run", row.Name, i)
			}
		}
	}
	ts := r.Row("timeshare", false)
	sf := r.Row("spinflag", false)
	ctl := r.Row("timeshare", true)
	if ts == nil || sf == nil || ctl == nil {
		t.Fatal("missing rows")
	}
	// The spin-flag scheduler exists to suppress critical-section
	// preemption (paper §3): its spin fraction must undercut the
	// oblivious timesharer's.
	if !(sf.SpinFrac < ts.SpinFrac) {
		t.Errorf("spinflag spin %.3f not below timeshare %.3f", sf.SpinFrac, ts.SpinFrac)
	}
	// Process control needs far fewer context switches than any
	// time-multiplexing policy (each runnable process keeps a CPU).
	if !(ctl.Switches < ts.Switches/2) {
		t.Errorf("control switches %d not well below timeshare %d", ctl.Switches, ts.Switches)
	}
	if r.Row("bogus", false) != nil {
		t.Error("unknown row returned")
	}
	if out := r.Render(); !strings.Contains(out, "timeshare") {
		t.Error("Render missing rows")
	}
}

func TestUncontrolledMixFairness(t *testing.T) {
	o := fastOpts()
	r := UncontrolledMix(o)
	if len(r.Policies) != 2 {
		t.Fatalf("policies %v", r.Policies)
	}
	// Paper §7: under the plain timesharer, the greedy application
	// hogs the machine and the controlled one crawls; partitioning
	// restores the controlled application's share.
	tsIdx, ptIdx := 0, 1
	if !(r.ControlledApp[ptIdx] < r.ControlledApp[tsIdx]) {
		t.Errorf("partition did not rescue the controlled app: %v vs %v",
			r.ControlledApp[ptIdx], r.ControlledApp[tsIdx])
	}
	if out := r.Render(); !strings.Contains(out, "partition") {
		t.Error("Render missing rows")
	}
}

func TestCacheSweepShape(t *testing.T) {
	o := fastOpts()
	r := CacheSweep(o, []float64{1, 10})
	// Costlier cache reloads hurt the uncontrolled overloaded run but
	// barely touch the controlled one (which never multiplexes).
	if !(r.Uncontrolled[1] < r.Uncontrolled[0]) {
		t.Errorf("uncontrolled speed-up did not fall with reload cost: %v", r.Uncontrolled)
	}
	drop := (r.Controlled[0] - r.Controlled[1]) / r.Controlled[0]
	if drop > 0.1 {
		t.Errorf("controlled speed-up fell %.0f%% with reload cost; should be insulated", drop*100)
	}
	if out := r.Render(); !strings.Contains(out, "reload") {
		t.Error("Render missing")
	}
}

func TestQuantumSweepRuns(t *testing.T) {
	o := fastOpts()
	r := QuantumSweep(o, []sim.Duration{30 * sim.Millisecond, 300 * sim.Millisecond})
	if len(r.Matmul) != 2 || len(r.FFT) != 2 {
		t.Fatalf("sweep incomplete: %+v", r)
	}
	for i := range r.Quanta {
		if r.Matmul[i] <= 0 || r.FFT[i] <= 0 {
			t.Errorf("empty speed-up at %v", r.Quanta[i])
		}
	}
	if out := r.Render(); !strings.Contains(out, "quantum") {
		t.Error("Render missing")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Machine.NumCPU != 16 {
		t.Errorf("default machine has %d CPUs", o.Machine.NumCPU)
	}
	if o.Seeds != 3 || o.Horizon != 600*sim.Second {
		t.Errorf("defaults: %+v", o)
	}
	if o.NewPolicy().Name() != "timeshare" {
		t.Errorf("default policy %s", o.NewPolicy().Name())
	}
}

// stubController records which applications registered with it and
// grants each its full request.
type stubController struct{ registered []kernel.AppID }

func (c *stubController) Register(id kernel.AppID, procs int) {
	c.registered = append(c.registered, id)
}
func (c *stubController) Unregister(kernel.AppID) {}
func (c *stubController) Poll(kernel.AppID) int   { return 16 }

// TestRunSim: the one runner launches each application as its simRun
// says. A staggered application starts from an engine event at its
// start time: the sampler sees none of its processes before it and all
// of them at the next sample. A run's own controller replaces the
// server, and a greedy application never registers with it.
func TestRunSim(t *testing.T) {
	o := fastOpts()
	wl := apps.Matmul(8, 2, 100*sim.Millisecond) // 0.8 s on two processes
	late := sim.Time(300 * sim.Millisecond)

	t.Run("staggered", func(t *testing.T) {
		out := runSim(simRun{o: o, staggered: true, sample: true, apps: []launch{
			{wl: wl, procs: 2}, {wl: wl, procs: 2, at: late},
		}})
		if len(out.elapsed) != 2 || out.elapsed[1] <= 0 {
			t.Fatalf("elapsed %v", out.elapsed)
		}
		seen := false
		for _, smp := range out.samples {
			n := smp.App(2)
			if smp.At < late && n != 0 {
				t.Errorf("at %v, before its start time, the late application has %d processes", smp.At, n)
			}
			if smp.At == late.Add(200*sim.Millisecond) {
				seen = true
				if n != 2 {
					t.Errorf("at %v the late application has %d processes, want 2", smp.At, n)
				}
			}
		}
		if !seen {
			t.Errorf("no sample at %v", late.Add(200*sim.Millisecond))
		}
	})

	t.Run("controller", func(t *testing.T) {
		ctl := &stubController{}
		var server bool
		runSim(simRun{o: o, control: true,
			ctl:  func(*kernel.Kernel) threads.Controller { return ctl },
			apps: []launch{{wl: wl, procs: 2, greedy: true}, {wl: wl, procs: 2}},
			read: func(s *Sim, apps []*threads.App) { server = s.Server != nil },
		})
		if !reflect.DeepEqual(ctl.registered, []kernel.AppID{2}) {
			t.Errorf("registered with the run's controller: %v, want only the non-greedy application 2", ctl.registered)
		}
		if !server {
			t.Error("control on started no server")
		}
	})
}

// TestFanOutKeepsRunOrder: fanOut starts the runs with the most
// processes first, on several goroutines, and still returns each run's
// output at that run's index.
func TestFanOutKeepsRunOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	o := fastOpts()
	wl := apps.TinyMatmul()
	var runs []simRun
	for _, procs := range []int{1, 8, 2, 24, 4} {
		runs = append(runs, solo(o, wl, procs, false))
	}
	got := fanOut(runs, simRun.procs, runSim)
	for i, r := range runs {
		if want := runSim(r); !reflect.DeepEqual(got[i], want) {
			t.Errorf("run %d (%d procs): fanOut gave %v, alone it gives %v", i, r.apps[0].procs, got[i], want)
		}
	}
	if len(fanOut[simRun](nil, simRun.procs, runSim)) != 0 {
		t.Error("no runs, some outputs")
	}
}

func TestNamedPolicies(t *testing.T) {
	names, factories := NamedPolicies()
	if len(names) != 5 {
		t.Fatalf("names %v", names)
	}
	for _, n := range names {
		p := factories[n]()
		if p.Name() != n {
			t.Errorf("factory %q built policy %q", n, p.Name())
		}
	}
}

func TestMustFinishPanics(t *testing.T) {
	o := fastOpts()
	o.Horizon = sim.Second // far too short for this workload
	defer func() {
		if recover() == nil {
			t.Error("horizon overrun did not panic")
		}
	}()
	Solo(o, apps.PaperMatmul(), 1, false)
}

func TestSimRespectsKernelOptions(t *testing.T) {
	o := fastOpts()
	o.Kernel = kernel.Config{Quantum: 5 * sim.Millisecond}
	s := NewSim(o, false)
	if s.K.Config().Quantum != 5*sim.Millisecond {
		t.Errorf("quantum %v", s.K.Config().Quantum)
	}
}

func TestDecentralCapture(t *testing.T) {
	o := fastOpts()
	o.PollInterval = 6 * sim.Second
	r := Decentral(o, nil)
	if len(r.Modes) != 3 {
		t.Fatalf("modes %v", r.Modes)
	}
	// Paper §4.2: the centralized server is fair; the decentralized
	// variant lets the first arrival capture the machine, so its
	// unfairness (slowest/fastest) is far worse.
	if r.Unfairness[0] > 1.3 {
		t.Errorf("centralized unfairness %.2f, want near 1", r.Unfairness[0])
	}
	if !(r.Unfairness[1] > r.Unfairness[0]*1.5) {
		t.Errorf("decentralized unfairness %.2f not clearly worse than centralized %.2f",
			r.Unfairness[1], r.Unfairness[0])
	}
	if out := r.Render(); !strings.Contains(out, "decentralized") {
		t.Error("Render missing rows")
	}
}

func TestLatencyTails(t *testing.T) {
	o := fastOpts()
	r := Latency(o, 24)
	if r.Off.Count == 0 || r.On.Count != r.Off.Count {
		t.Fatalf("counts %d/%d", r.Off.Count, r.On.Count)
	}
	// The paper's FIFO requeue delay stretches every task's wait: with
	// control the waits are the backlog draining through 16 processors
	// and nothing else, without it the mean and the tail both come out
	// about twice as long. (This used to compare p99/p50 ratios, and
	// passed only because the power-of-two buckets of the histogram it
	// read put both medians on the same 2.097 s bucket bound; on exact
	// quantiles both ratios are 2, as for any backlog drained at a
	// steady rate.)
	for _, q := range []struct {
		what    string
		off, on int64
	}{
		{"p99 wait", r.Off.Quantile(990), r.On.Quantile(990)},
		{"mean wait", r.Off.Sum / r.Off.Count, r.On.Sum / r.On.Count},
	} {
		if !(float64(q.off) > 1.5*float64(q.on)) {
			t.Errorf("uncontrolled %s %d µs not clearly longer than controlled %d µs", q.what, q.off, q.on)
		}
	}
	if out := r.Render(); !strings.Contains(out, "queueing delay") {
		t.Error("Render missing")
	}
}

// TestLatencyRenderBars: the summary line and the bucket bars Render
// draws from a histogram series — one row per non-empty bucket, labelled
// with its upper bound, scaled to the fullest — and an empty series.
func TestLatencyRenderBars(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("w", "", metrics.LatencyBuckets)
	reg.Histogram("e", "", metrics.LatencyBuckets)
	for i := 0; i < 10; i++ {
		h.Observe(int64(sim.Millisecond))
	}
	h.Observe(int64(sim.Second))
	snap := reg.Snapshot(0)
	bars := waitBars(snap.Get("w"), 20)
	want := fmt.Sprintf("%10s |%-20s 10\n%10s |%-20s 1\n", "1.000ms", strings.Repeat("#", 20), "1.000s", "##")
	if bars != want {
		t.Errorf("bars:\n%s\nwant:\n%s", bars, want)
	}
	sum := waitSummary(snap.Get("w"))
	for _, want := range []string{"n=11", "mean=91.818ms", "p50=", "p95=", "p99="} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q is missing %q", sum, want)
		}
	}
	if p99 := snap.Get("w").Quantile(990); p99 > int64(sim.Second) {
		t.Errorf("p99 %d µs is above the largest observation", p99)
	}
	if waitBars(snap.Get("e"), 20) != "empty\n" || waitSummary(snap.Get("e")) != "empty" {
		t.Error("an empty series does not render as empty")
	}
}

func TestExperimentDeterminism(t *testing.T) {
	o := fastOpts()
	a := Fig1(o, []int{16})
	b := Fig1(o, []int{16})
	if a.Matmul[0] != b.Matmul[0] || a.FFT[0] != b.FFT[0] {
		t.Errorf("same seed produced different figures: %v/%v vs %v/%v",
			a.Matmul[0], a.FFT[0], b.Matmul[0], b.FFT[0])
	}
}
