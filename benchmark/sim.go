package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"procctl/internal/apps"
	"procctl/internal/experiments"
	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

// The two simulator workloads time the public figure functions
// (experiments.Fig4; experiments.Fig1 + Fig3) and check them against a
// serial pass that runs the same simulations one at a time through the
// public pieces those functions are made of (NewSim, LaunchNow,
// Engine.Schedule, RunUntil). The serial pass is where event counts and
// kernel counters come from — the figure functions do not return them —
// and, in a traced run, where the per-layer spans are recorded.

// arrival is one application of a simulated mix.
type arrival struct {
	app   string
	at    sim.Time
	procs int
}

// point is one simulation of a figure.
type point struct {
	name    string
	control bool
	// staggered mixes (Figure 4) launch from engine events and sample
	// the runnable-process count every 250 ms, exactly as
	// experiments.Fig4 does; the others launch before the engine runs.
	staggered bool
	arrivals  []arrival
}

// simCounts are the exact virtual-time counters of one simulation.
type simCounts struct {
	Fired, Canceled                                  uint64
	CtxSwitches, Dispatches, PreemptCrit             int64
	SpinMicros, ReloadMicros, CacheHits, CacheMisses int64
	Tasks, Suspensions, Scans, Polls                 int64
}

func (c *simCounts) add(o simCounts) {
	c.Fired += o.Fired
	c.Canceled += o.Canceled
	c.CtxSwitches += o.CtxSwitches
	c.Dispatches += o.Dispatches
	c.PreemptCrit += o.PreemptCrit
	c.SpinMicros += o.SpinMicros
	c.ReloadMicros += o.ReloadMicros
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.Tasks += o.Tasks
	c.Suspensions += o.Suspensions
	c.Scans += o.Scans
	c.Polls += o.Polls
}

// pointResult is what the serial pass learns from one simulation.
type pointResult struct {
	Elapsed  []sim.Duration // per application, in arrival order
	Finished bool
	Counts   simCounts

	wall, build, newsim, launch time.Duration
}

// runPoint runs one simulation through the public API, timing each
// layer boundary (and recording it as a span when traced).
func runPoint(o experiments.Options, p point, tr *tracer, parent int64) pointResult {
	var res pointResult
	start := time.Now()
	sp := tr.begin(parent, "point", p.name)

	b := tr.begin(sp, "apps.build", p.name)
	t := time.Now()
	wls := make([]*threads.Workload, len(p.arrivals))
	for i, a := range p.arrivals {
		wls[i] = apps.ByName(a.app)
		if wls[i] == nil {
			panic(fmt.Sprintf("benchmark: unknown application %q", a.app))
		}
	}
	res.build = time.Since(t)
	tr.end(b)

	b = tr.begin(sp, "experiments.newsim", p.name)
	t = time.Now()
	s := experiments.NewSim(o, p.control)
	res.newsim = time.Since(t)
	tr.end(b)

	launched := make([]*threads.App, len(p.arrivals))
	launch := func(i int, under int64) {
		b := tr.begin(under, "threads.launch", p.arrivals[i].app)
		t := time.Now()
		launched[i] = s.LaunchNow(kernel.AppID(i+1), wls[i], p.arrivals[i].procs)
		res.launch += time.Since(t)
		tr.end(b)
	}
	var run int64
	var sampler *trace.Sampler
	if p.staggered {
		// Same engine-event order as experiments.Fig4: the sampler's
		// timer first, then one launch event per application.
		sampler = trace.NewSampler(s.K, 250*sim.Millisecond)
		for i, a := range p.arrivals {
			i := i
			s.Eng.Schedule(a.at, func() { launch(i, run) })
		}
	} else {
		for i := range p.arrivals {
			launch(i, sp)
		}
	}

	run = tr.begin(sp, "sim.run", p.name)
	res.Finished = s.RunUntil(func() bool {
		for _, a := range launched {
			if a == nil || !a.Done() {
				return false
			}
		}
		return true
	})
	tr.end(run)
	if sampler != nil {
		sampler.Stop()
	}

	for _, a := range launched {
		if a != nil {
			res.Elapsed = append(res.Elapsed, a.Elapsed())
		}
	}
	res.Counts = countsOf(s)
	tr.count(run, "events_fired", int64(res.Counts.Fired))
	tr.count(run, "context_switches", res.Counts.CtxSwitches)
	tr.end(sp)
	res.wall = time.Since(start)
	return res
}

// countsOf reads the exact counters of a finished simulation.
func countsOf(s *experiments.Sim) simCounts {
	c := simCounts{Fired: s.Eng.Fired(), Canceled: s.Eng.Canceled()}
	snap := s.K.MetricsSnapshot()
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		switch m.Base {
		case "sim_app_tasks_total":
			c.Tasks += m.Value
		case "sim_app_suspensions_total":
			c.Suspensions += m.Value
		}
	}
	get := func(name string) int64 {
		if m := snap.Get(name); m != nil {
			return m.Value
		}
		return 0
	}
	c.CtxSwitches = get(kernel.MetricCtxSwitches)
	c.Dispatches = get(kernel.MetricDispatches)
	c.PreemptCrit = get(kernel.MetricPreemptCrit)
	c.SpinMicros = get(kernel.MetricSpinMicros)
	c.ReloadMicros = get(kernel.MetricReloadMicros)
	c.CacheHits = get("sim_cache_hits")
	c.CacheMisses = get("sim_cache_misses")
	c.Scans = get("sim_ctrl_scans_total")
	c.Polls = get("sim_ctrl_polls_total")
	return c
}

// serialPass runs every point of a figure, one after another.
func serialPass(o experiments.Options, fig string, points []point, tr *tracer) ([]pointResult, time.Duration) {
	start := time.Now()
	sp := tr.begin(0, "figure", fig)
	out := make([]pointResult, len(points))
	for i, p := range points {
		out[i] = runPoint(o, p, tr, sp)
	}
	tr.end(sp)
	return out, time.Since(start)
}

// virtualResult is a pointResult without its host timings: what must be
// identical between any two runs of the same seed.
type virtualResult struct {
	Elapsed  []sim.Duration
	Finished bool
	Counts   simCounts
}

func virtualOf(pass []pointResult) []virtualResult {
	out := make([]virtualResult, len(pass))
	for i, p := range pass {
		out[i] = virtualResult{p.Elapsed, p.Finished, p.Counts}
	}
	return out
}

// simFigure is what the two simulator workloads differ in.
type simFigure struct {
	name   string
	points []point
	// call regenerates the figure through the public function(s) and
	// returns, per point, the per-application virtual times the result
	// implies — in the shape of the serial pass, so the two compare
	// directly.
	call func(o experiments.Options) [][]float64
	// expect maps the serial pass to the same shape.
	expect func(ref []pointResult) [][]float64
	// check adds figure-specific checks on the reference pass.
	check func(ref []pointResult, rep *report)
}

func runSimFigure(e *env, fig simFigure) *report {
	rep := newReport()
	o := experiments.Options{Seed: e.seed, Seeds: 1}

	// Set-up: the serial pass, several times for a steady median. Every
	// pass must give the same virtual results (determinism).
	var ref []pointResult
	var passWalls []float64
	for i := 0; i < e.sz.simSetupReps; i++ {
		runtime.GC()
		pass, wall := serialPass(o, fig.name, fig.points, nil)
		passWalls = append(passWalls, wall.Seconds())
		if ref == nil {
			ref = pass
			continue
		}
		if reflect.DeepEqual(virtualOf(pass), virtualOf(ref)) {
			rep.ok(len(pass))
		} else {
			rep.fail("%s: serial pass %d differs from pass 0 at the same seed", fig.name, i)
		}
	}
	var total simCounts
	for i, p := range ref {
		total.add(p.Counts)
		if p.Finished && len(p.Elapsed) == len(fig.points[i].arrivals) {
			rep.ok(1)
		} else {
			rep.fail("%s: point %s did not finish before the horizon", fig.name, fig.points[i].name)
		}
	}
	if fig.check != nil {
		fig.check(ref, rep)
	}
	if e.sz.golden && e.seed == 1 {
		checkGolden(fig.name, ref, total, rep)
	}
	want := fig.expect(ref)
	kiloEvents := float64(total.Fired) / 1000

	verify := func(got [][]float64) {
		if reflect.DeepEqual(got, want) {
			rep.ok(len(want))
		} else {
			rep.fail("%s: public figure result differs from the serial pass", fig.name)
		}
	}

	// One untimed warm-up of the public call.
	verify(fig.call(o))

	var tracedWalls []float64
	var traced [][]pointResult
	m := e.measure(rep, func(int) (repSample, error) {
		if e.tr != nil {
			pass, wall := serialPass(o, fig.name, fig.points, e.tr)
			traced = append(traced, pass)
			tracedWalls = append(tracedWalls, wall.Seconds())
			if !reflect.DeepEqual(virtualOf(pass), virtualOf(ref)) {
				rep.fail("%s: traced serial pass differs from pass 0 at the same seed", fig.name)
			}
			runtime.GC()
		}
		m0 := mallocs()
		start := time.Now()
		got := fig.call(o)
		wall := time.Since(start)
		allocs := float64(mallocs()-m0) / kiloEvents
		verify(got)
		// The operation a user waits for here is the figure itself.
		return repSample{wall: wall, latency: float64(wall), allocs: allocs}, nil
	})
	fmt.Fprintf(e.log, "  %d simulations, %d engine events per figure\n", len(fig.points), total.Fired)
	m.endToEnd(e, rep, float64(total.Fired), "events", 1)
	if e.tr == nil {
		rep.set("setup_s", median(passWalls))
		return rep
	}

	// Per-layer numbers: medians over the traced serial passes.
	var build, newsim, launch, runNs, pointMs []float64
	for _, pass := range traced {
		var b, n, l, r time.Duration
		for _, p := range pass {
			b += p.build
			n += p.newsim
			l += p.launch
			r += p.wall - p.build - p.newsim - p.launch
			pointMs = append(pointMs, ms(p.wall))
		}
		build = append(build, ms(b))
		newsim = append(newsim, us(n)/float64(len(pass)))
		launch = append(launch, ms(l))
		runNs = append(runNs, float64(r)/float64(total.Fired))
	}
	rep.set("sim.events_fired", float64(total.Fired))
	rep.set("sim.events_canceled", float64(total.Canceled))
	rep.set("sim.run_ns_per_event", median(runNs))
	rep.set("sim.bare_ns_per_event", bareEngineNsPerEvent(e.seed, int(min(total.Fired, 2_000_000))))
	rep.set("kernel.context_switches", float64(total.CtxSwitches))
	rep.set("kernel.dispatches", float64(total.Dispatches))
	rep.set("kernel.preemptions_in_crit", float64(total.PreemptCrit))
	rep.set("kernel.spin_virtual_s", float64(total.SpinMicros)/1e6)
	rep.set("kernel.spawn_us", kernelSpawnMicros(o))
	rep.set("machine.reload_virtual_s", float64(total.ReloadMicros)/1e6)
	if d := total.CacheHits + total.CacheMisses; d > 0 {
		rep.set("machine.cache_miss_ratio", float64(total.CacheMisses)/float64(d))
	}
	rep.set("threads.launch_ms", median(launch))
	rep.set("threads.tasks_run", float64(total.Tasks))
	rep.set("threads.suspensions", float64(total.Suspensions))
	rep.set("apps.build_ms", median(build))
	rep.set("ctrl.scans", float64(total.Scans))
	rep.set("ctrl.polls", float64(total.Polls))
	rep.set("experiments.newsim_us", median(newsim))
	rep.set("experiments.point_ms_p50", median(pointMs))
	rep.set("experiments.parallel_eff", median(passWalls)/(float64(runtime.GOMAXPROCS(0))*median(m.walls)))
	if fig.name == "sim_fig4" {
		rep.set("experiments.fig4_ctl_gain", ctlGain(ref))
	}
	rep.set("harness.trace_overhead_pct", 100*(median(tracedWalls)-median(passWalls))/median(passWalls))

	worst, n := closure(e.tr.snapshot(), "figure")
	if n > 0 && worst <= 0.10 {
		rep.ok(n)
	} else {
		rep.fail("%s: span self times are %.1f%% off their figure span (%d spans)", fig.name, 100*worst, n)
	}
	return rep
}

// ctlGain is Σ uncontrolled ÷ Σ controlled virtual elapsed time of the
// Figure 4 mix: the paper's claim as one exact number.
func ctlGain(ref []pointResult) float64 {
	var off, on sim.Duration
	for _, d := range ref[0].Elapsed {
		off += d
	}
	for _, d := range ref[1].Elapsed {
		on += d
	}
	if on == 0 {
		return 0
	}
	return float64(off) / float64(on)
}

// bareEngineNsPerEvent fires n no-op events through a bare sim.Engine:
// the floor under sim.run_ns_per_event. 64 self-rescheduling timers
// keep the heap at a realistic depth.
func bareEngineNsPerEvent(seed uint64, n int) float64 {
	if n < 1 {
		return 0
	}
	eng := sim.NewEngine(seed)
	left := n
	var tick func()
	tick = func() {
		left--
		if left > 0 {
			eng.After(sim.Duration(1+left%7)*sim.Microsecond, tick)
		}
	}
	const timers = 64
	for i := 0; i < timers && i < n; i++ {
		eng.After(sim.Duration(i+1)*sim.Microsecond, tick)
	}
	start := time.Now()
	eng.RunUntilIdle()
	return float64(time.Since(start)) / float64(eng.Fired())
}

// kernelSpawnMicros times kernel.Spawn for a batch of idle processes.
func kernelSpawnMicros(o experiments.Options) float64 {
	const procs = 256
	s := experiments.NewSim(o, false)
	start := time.Now()
	for i := 0; i < procs; i++ {
		s.K.Spawn("probe", kernel.AppNone, 0, func(*kernel.Env) {})
	}
	d := time.Since(start)
	s.Eng.RunUntilIdle()
	s.K.Finalize()
	s.K.Shutdown()
	return us(d) / procs
}

// ---- sim_fig4 ----

func fig4Points(mix []experiments.Fig4Arrival) []point {
	arr := make([]arrival, len(mix))
	for i, a := range mix {
		arr[i] = arrival{a.App, a.At, a.Procs}
	}
	return []point{
		{name: "fig4/off", control: false, staggered: true, arrivals: arr},
		{name: "fig4/on", control: true, staggered: true, arrivals: arr},
	}
}

func runSimFig4(e *env) *report {
	mix := e.sz.fig4Mix
	if mix == nil {
		mix = experiments.DefaultFig4Mix()
	}
	return runSimFigure(e, simFigure{
		name:   "sim_fig4",
		points: fig4Points(mix),
		call: func(o experiments.Options) [][]float64 {
			r := experiments.Fig4(o, mix)
			return [][]float64{seconds(r.Off.Elapsed), seconds(r.On.Elapsed)}
		},
		expect: func(ref []pointResult) [][]float64 {
			return [][]float64{seconds(ref[0].Elapsed), seconds(ref[1].Elapsed)}
		},
		check: func(ref []pointResult, rep *report) {
			if e.sz.fig4Mix != nil {
				return // a toy mix need not show the paper's effect
			}
			for i := range ref[0].Elapsed {
				if i < len(ref[1].Elapsed) && ref[1].Elapsed[i] < ref[0].Elapsed[i] {
					rep.ok(1)
				} else {
					rep.fail("sim_fig4: %s is not faster with process control", mix[i].App)
				}
			}
		},
	})
}

func seconds(ds []sim.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ---- sim_sweep ----

// sweepPoints lists the simulations of Fig1(procs) + Fig3(procs, apps)
// with one seed, in the order the comparison below indexes them:
// matmul and fft alone on one process, the Figure 1 pair per process
// count, then per application its one-process run followed by an
// uncontrolled and a controlled run per process count.
func sweepPoints(procs []int, appNames []string) []point {
	solo := func(app string, n int, control bool) point {
		return point{
			name:     fmt.Sprintf("%s/p%d/ctl=%v", app, n, control),
			control:  control,
			arrivals: []arrival{{app, 0, n}},
		}
	}
	pts := []point{solo("matmul", 1, false), solo("fft", 1, false)}
	for _, n := range procs {
		pts = append(pts, point{
			name:     fmt.Sprintf("fig1/p%d", n),
			arrivals: []arrival{{"matmul", 0, n}, {"fft", 0, n}},
		})
	}
	for _, app := range appNames {
		pts = append(pts, solo(app, 1, false))
		for _, n := range procs {
			pts = append(pts, solo(app, n, false), solo(app, n, true))
		}
	}
	return pts
}

func runSimSweep(e *env) *report {
	procs, appNames := e.sz.sweepProcs, e.sz.sweepApps
	np := len(procs)
	return runSimFigure(e, simFigure{
		name:   "sim_sweep",
		points: sweepPoints(procs, appNames),
		// Both sides are reduced to speed-ups, the numbers the figures
		// plot: one-process time ÷ time at that process count.
		call: func(o experiments.Options) [][]float64 {
			f1 := experiments.Fig1(o, procs)
			f3 := experiments.Fig3(o, procs, appNames...)
			out := [][]float64{f1.Matmul, f1.FFT}
			for _, c := range f3.Curves {
				out = append(out, c.Uncontrolled, c.Controlled)
			}
			return out
		},
		expect: func(ref []pointResult) [][]float64 {
			speedup := func(t1, t sim.Duration) float64 { return t1.Seconds() / t.Seconds() }
			mm, ff := make([]float64, np), make([]float64, np)
			for i := 0; i < np; i++ {
				pair := ref[2+i]
				mm[i] = speedup(ref[0].Elapsed[0], pair.Elapsed[0])
				ff[i] = speedup(ref[1].Elapsed[0], pair.Elapsed[1])
			}
			out := [][]float64{mm, ff}
			at := 2 + np
			for range appNames {
				t1 := ref[at].Elapsed[0]
				off, on := make([]float64, np), make([]float64, np)
				for i := 0; i < np; i++ {
					off[i] = speedup(t1, ref[at+1+2*i].Elapsed[0])
					on[i] = speedup(t1, ref[at+2+2*i].Elapsed[0])
				}
				out = append(out, off, on)
				at += 1 + 2*np
			}
			return out
		},
	})
}

// ---- golden ----

//go:embed golden_seed1.json
var goldenJSON []byte

// goldenFigure pins one figure's virtual results at seed 1, so a change
// to the simulator that alters them — or the amount of engine work they
// take — is caught by the benchmark itself and not read as a speed-up.
type goldenFigure struct {
	Events    uint64    `json:"events"`
	Canceled  uint64    `json:"canceled"`
	ElapsedUs [][]int64 `json:"elapsed_us"` // per point, per application
	CtlGain   float64   `json:"fig4_ctl_gain,omitempty"`
}

func goldenOf(fig string, ref []pointResult, total simCounts) goldenFigure {
	g := goldenFigure{Events: total.Fired, Canceled: total.Canceled}
	for _, p := range ref {
		row := make([]int64, len(p.Elapsed))
		for i, d := range p.Elapsed {
			row[i] = int64(d)
		}
		g.ElapsedUs = append(g.ElapsedUs, row)
	}
	if fig == "sim_fig4" {
		g.CtlGain = ctlGain(ref)
	}
	return g
}

func checkGolden(fig string, ref []pointResult, total simCounts, rep *report) {
	var golden map[string]goldenFigure
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		rep.fail("golden_seed1.json: %v", err)
		return
	}
	want, ok := golden[fig]
	if !ok {
		rep.fail("golden_seed1.json has no entry for %s", fig)
		return
	}
	if got := goldenOf(fig, ref, total); reflect.DeepEqual(got, want) {
		rep.ok(1)
	} else {
		rep.fail("%s: seed-1 virtual results differ from golden_seed1.json (events %d want %d)", fig, got.Events, want.Events)
	}
}

// goldenSeed1 produces golden_seed1.json's content from this tree.
func goldenSeed1(sz sizes) ([]byte, error) {
	o := experiments.Options{Seed: 1, Seeds: 1}
	out := make(map[string]goldenFigure)
	for _, fig := range []struct {
		name   string
		points []point
	}{
		{"sim_fig4", fig4Points(experiments.DefaultFig4Mix())},
		{"sim_sweep", sweepPoints(sz.sweepProcs, sz.sweepApps)},
	} {
		ref, _ := serialPass(o, fig.name, fig.points, nil)
		var total simCounts
		for _, p := range ref {
			total.add(p.Counts)
		}
		out[fig.name] = goldenOf(fig.name, ref, total)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
