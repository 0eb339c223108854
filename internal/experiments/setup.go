// Package experiments reproduces every figure of the paper's evaluation
// (Section 6) plus the ablations called out in DESIGN.md. Each experiment
// is a pure function from an Options value to a result struct with both
// machine-readable fields (asserted by tests and benchmarks) and a
// Render method that prints the figure's data as a text table.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"procctl/internal/apps"
	"procctl/internal/ctrl"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

// Options configures one simulated machine and runtime for an
// experiment. The zero value selects the paper's setup: a 16-CPU
// Multimax under the UMAX-like timeshare scheduler, 6 s application
// polls, 1 s server scans.
type Options struct {
	// Seed seeds all randomness (quantum jitter etc.).
	Seed uint64
	// Machine is the hardware; zero value selects machine.Multimax16.
	Machine machine.Config
	// Kernel holds quantum parameters; zero selects kernel defaults.
	Kernel kernel.Config
	// NewPolicy constructs the scheduling policy; nil selects
	// kernel.NewTimeshare.
	NewPolicy func() kernel.Policy
	// ScanInterval is the central server's recompute period.
	ScanInterval sim.Duration
	// PollInterval is the applications' server poll period (paper: 6 s).
	PollInterval sim.Duration
	// Horizon bounds each run's virtual time (default 600 s).
	Horizon sim.Duration
	// Seeds is how many independent seeds to average over in the
	// figure sweeps (default 3).
	Seeds int
}

func (o Options) withDefaults() Options {
	if o.Machine.NumCPU == 0 {
		o.Machine = machine.Multimax16()
	}
	if o.NewPolicy == nil {
		o.NewPolicy = func() kernel.Policy { return kernel.NewTimeshare() }
	}
	if o.Horizon <= 0 {
		o.Horizon = 600 * sim.Second
	}
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	return o
}

// Sim is one instantiated simulation: machine, kernel, and (optionally)
// the central server.
type Sim struct {
	Opts   Options
	Eng    *sim.Engine
	Mac    *machine.Machine
	K      *kernel.Kernel
	Server *ctrl.Server // nil when control is off
	// ctl is what launched applications register with: Server, or
	// another controller (Decentral), or nil.
	ctl threads.Controller
}

// NewSim builds a simulation. With control true it also starts the
// central server.
func NewSim(o Options, control bool) *Sim {
	o = o.withDefaults()
	s := &Sim{Opts: o}
	s.Eng = sim.NewEngine(o.Seed)
	s.Mac = machine.New(o.Machine)
	s.K = kernel.New(s.Eng, s.Mac, o.NewPolicy(), o.Kernel)
	if control {
		s.Server = ctrl.NewServer(s.K, o.ScanInterval)
		s.ctl = s.Server
	}
	return s
}

// LaunchNow starts wl with the given process count, registered with
// this sim's controller if it has one.
func (s *Sim) LaunchNow(id kernel.AppID, wl *threads.Workload, procs int) *threads.App {
	return s.launch(id, launch{wl: wl, procs: procs})
}

func (s *Sim) launch(id kernel.AppID, l launch) *threads.App {
	cfg := threads.Config{Procs: l.procs, PollInterval: s.Opts.PollInterval, RecordLatency: l.latency}
	if !l.greedy {
		cfg.Controller = s.ctl
	}
	return threads.Launch(s.K, id, l.wl, cfg)
}

// RunUntil steps the engine in 250 ms chunks until done reports true or
// the horizon passes; it finalizes kernel accounting and reports whether
// done was reached.
func (s *Sim) RunUntil(done func() bool) bool {
	horizon := sim.Time(0).Add(s.Opts.Horizon)
	for !done() && s.Eng.Now() < horizon {
		s.Eng.Run(s.Eng.Now().Add(250 * sim.Millisecond))
	}
	ok := done()
	s.K.Finalize()
	return ok
}

// mustFinish panics with a diagnostic if a run hit the horizon; the
// experiments are calibrated to finish well within it, so hitting it
// indicates a regression.
func (s *Sim) mustFinish(ok bool, what string) {
	if !ok {
		panic(fmt.Sprintf("experiments: %s did not finish within %v (seed %d, policy %s)",
			what, s.Opts.Horizon, s.Opts.Seed, s.K.Policy().Name()))
	}
}

// mustWorkload builds the named application's DAG, panicking on an
// unknown name.
func mustWorkload(name string) *threads.Workload {
	wl := apps.ByName(name)
	if wl == nil {
		panic(fmt.Sprintf("experiments: unknown application %q", name))
	}
	return wl
}

// launch is one application of a simulation: its workload, how many
// processes it runs, and when it starts.
type launch struct {
	wl    *threads.Workload
	procs int
	at    sim.Time
	// greedy applications never register with the controller
	// (UncontrolledMix's matmul); latency ones keep per-task timing.
	greedy, latency bool
}

// mixLaunches builds the DAG of every application of mix, once, and
// seals it with its first Validate, each as a job of its own through
// fanOut. The jobs start in arrival order, which in the paper's mix is
// largest first (bigfft, 49 k tasks). A sealed threads.Workload is
// immutable, so a figure hands the same launches to each of its runs —
// control off and on, every seed, every policy — concurrent ones
// included.
func mixLaunches(mix []Fig4Arrival) []launch {
	return fanOut(mix, nil, func(arr Fig4Arrival) launch {
		wl := mustWorkload(arr.App)
		if err := wl.Validate(); err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", arr.App, err))
		}
		return launch{wl: wl, procs: arr.Procs, at: arr.At}
	})
}

// simRun is one simulation of a figure; runSim runs it.
type simRun struct {
	o    Options
	apps []launch
	// control starts the central server; ctl, if set, builds the
	// controller the applications register with instead (Decentral).
	control bool
	ctl     func(*kernel.Kernel) threads.Controller
	// staggered launches every application from an engine event at its
	// start time, as Figures 4 and 5 do; otherwise all of them start
	// before the engine runs. sample records the runnable-process series
	// every 250 ms, its timer scheduled ahead of the launches.
	staggered, sample bool
	// read, if set, takes what the figure needs from the finished
	// simulation beyond its simOut.
	read func(s *Sim, apps []*threads.App)
}

// simOut is what a figure reads from every finished simulation: each
// application's elapsed time, in launch order, and the sampled series.
type simOut struct {
	elapsed []sim.Duration
	samples []trace.Sample
}

// solo is wl alone on the machine with procs processes.
func solo(o Options, wl *threads.Workload, procs int, control bool) simRun {
	return simRun{o: o, control: control, apps: []launch{{wl: wl, procs: procs}}}
}

// perSeed is r once for each of its options' seeds, from Seed upwards.
func perSeed(r simRun) []simRun {
	runs := make([]simRun, r.o.Seeds)
	for si := range runs {
		runs[si] = r
		runs[si].o.Seed += uint64(si)
	}
	return runs
}

// runSim creates the simulation r describes, launches its applications,
// runs it until every one has finished and returns what they took. It
// panics if one is still running at the horizon.
func runSim(r simRun) simOut {
	s := NewSim(r.o, r.control)
	if r.ctl != nil {
		s.ctl = r.ctl(s.K)
	}
	var sampler *trace.Sampler
	if r.sample {
		sampler = trace.NewSampler(s.K, 250*sim.Millisecond)
	}
	apps := make([]*threads.App, len(r.apps))
	for i, l := range r.apps {
		if r.staggered {
			s.Eng.Schedule(l.at, func() { apps[i] = s.launch(kernel.AppID(i+1), l) })
		} else {
			apps[i] = s.launch(kernel.AppID(i+1), l)
		}
	}
	s.RunUntil(func() bool {
		for _, a := range apps {
			if a == nil || !a.Done() {
				return false
			}
		}
		return true
	})
	out := simOut{elapsed: make([]sim.Duration, len(apps))}
	for i, a := range apps {
		s.mustFinish(a != nil && a.Done(), r.apps[i].wl.Name)
		out.elapsed[i] = a.Elapsed()
	}
	if sampler != nil {
		sampler.Stop()
		out.samples = sampler.Samples
	}
	if r.read != nil {
		r.read(s, apps)
	}
	return out
}

// Solo runs wl alone with the given process count and returns its
// elapsed virtual time.
func Solo(o Options, wl *threads.Workload, procs int, control bool) sim.Duration {
	return runSim(solo(o, wl, procs, control)).elapsed[0]
}

// procs is how many processes r's applications start with together.
func (r simRun) procs() (n int) {
	for _, l := range r.apps {
		n += l.procs
	}
	return n
}

// fanOut runs run on every job on up to GOMAXPROCS host goroutines, the
// calling one among them, and returns the results in the order of jobs.
// It is the package's one parallel path: every figure's simulations go
// through it (run is runSim, each job owns an independent engine, and
// what each returns depends only on its own seed), and so do the DAG
// builds of a mix (mixLaunches). With size set, the largest jobs start
// first, so that the long ones do not end up alone at the tail (for a
// figure, the runs with the most processes); otherwise they start in
// the order given. The order cannot show in the results.
func fanOut[J, O any](jobs []J, size func(J) int, run func(J) O) []O {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	if size != nil {
		slices.SortStableFunc(order, func(a, b int) int { return size(jobs[b]) - size(jobs[a]) })
	}
	outs := make([]O, len(jobs))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(order); i = int(next.Add(1) - 1) {
			outs[order[i]] = run(jobs[order[i]])
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return outs
}

// meanElapsed is each application's elapsed time averaged over outs,
// the runs of one simulation on successive seeds.
func meanElapsed(outs []simOut) []sim.Duration {
	means := make([]sim.Duration, len(outs[0].elapsed))
	for i := range means {
		for _, out := range outs {
			means[i] += out.elapsed[i]
		}
		means[i] /= sim.Duration(len(outs))
	}
	return means
}

// meanSpeedup is t1 over application app's elapsed time, averaged over
// outs.
func meanSpeedup(t1 sim.Duration, outs []simOut, app int) float64 {
	sum := 0.0
	for _, out := range outs {
		sum += t1.Seconds() / out.elapsed[app].Seconds()
	}
	return sum / float64(len(outs))
}

// meanOverload is the time-averaged excess of runnable processes over
// the machine's ncpu processors in a sampled series.
func meanOverload(samples []trace.Sample, ncpu int) float64 {
	over := 0.0
	for _, smp := range samples {
		if total := smp.Total(); total > ncpu {
			over += float64(total - ncpu)
		}
	}
	if len(samples) == 0 {
		return 0
	}
	return over / float64(len(samples))
}

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
