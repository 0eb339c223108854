// Package experiments reproduces every figure of the paper's evaluation
// (Section 6) plus the ablations called out in DESIGN.md. Each experiment
// is a pure function from an Options value to a result struct with both
// machine-readable fields (asserted by tests and benchmarks) and a
// Render method that prints the figure's data as a text table.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
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
	// Threads overrides threads runtime cost parameters; Procs,
	// Controller and PollInterval fields are ignored (set per run).
	Threads threads.Config
	// Horizon bounds each run's virtual time (default 600 s).
	Horizon sim.Duration
	// Seeds is how many independent seeds to average over in the
	// figure sweeps (default 3).
	Seeds int
	// TraceDir, when set, makes every simulation record its causal
	// event trace into a uniquely numbered JSONL file under this
	// directory (created if missing). Analyze the files with
	// procctl-trace summary/analyze/export.
	TraceDir string
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

	rec       *trace.Recorder // non-nil when Opts.TraceDir is set
	traceFile *os.File
	TracePath string // path of the recorded trace, if any
}

// traceSeq numbers trace files across every Sim of the process, so
// concurrent sweep runs never collide on a filename. The numbering (not
// the per-file content) depends on host goroutine order.
var traceSeq atomic.Int64

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
	}
	if o.TraceDir != "" {
		if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
			panic(fmt.Sprintf("experiments: creating trace dir: %v", err))
		}
		ctl := ""
		if control {
			ctl = "-ctl"
		}
		name := fmt.Sprintf("trace-%04d-%s-seed%d%s.jsonl",
			traceSeq.Add(1), s.K.Policy().Name(), o.Seed, ctl)
		s.TracePath = filepath.Join(o.TraceDir, name)
		f, err := os.Create(s.TracePath)
		if err != nil {
			panic(fmt.Sprintf("experiments: creating trace file: %v", err))
		}
		s.traceFile = f
		s.rec = trace.NewRecorder(s.K, f, trace.Meta{Seed: o.Seed, Control: control})
	}
	return s
}

// CloseTrace ends the recording (writing the horizon marker) and closes
// the trace file. RunUntil calls it; it is exported for callers that
// drive the engine themselves. It is a no-op without a recorder.
func (s *Sim) CloseTrace() {
	if s.rec == nil {
		return
	}
	if err := s.rec.Close(); err != nil {
		panic(fmt.Sprintf("experiments: writing trace: %v", err))
	}
	if err := s.traceFile.Close(); err != nil {
		panic(fmt.Sprintf("experiments: closing trace: %v", err))
	}
	s.rec, s.traceFile = nil, nil
}

// LaunchNow starts wl with the given process count under this sim's
// control setting (server if present).
func (s *Sim) LaunchNow(id kernel.AppID, wl *threads.Workload, procs int) *threads.App {
	cfg := s.Opts.Threads
	cfg.Procs = procs
	cfg.PollInterval = s.Opts.PollInterval
	if s.Server != nil {
		cfg.Controller = s.Server
	}
	return threads.Launch(s.K, id, wl, cfg)
}

// LaunchWith starts wl under a fully specified runtime config (e.g. to
// enable latency recording), attaching this sim's controller when the
// config has none and control is on.
func (s *Sim) LaunchWith(id kernel.AppID, wl *threads.Workload, cfg threads.Config) *threads.App {
	if cfg.Controller == nil && s.Server != nil {
		cfg.Controller = s.Server
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = s.Opts.PollInterval
	}
	return threads.Launch(s.K, id, wl, cfg)
}

// LaunchAt schedules wl to start at virtual time at; the returned pointer
// is filled in when the launch fires.
func (s *Sim) LaunchAt(at sim.Time, id kernel.AppID, wl *threads.Workload, procs int) **threads.App {
	slot := new(*threads.App)
	s.Eng.Schedule(at, func() {
		*slot = s.LaunchNow(id, wl, procs)
	})
	return slot
}

// RunUntil steps the engine in 250 ms chunks until done reports true or
// the horizon passes; it finalizes kernel accounting and unwinds process
// bodies, and reports whether done was reached.
func (s *Sim) RunUntil(done func() bool) bool {
	horizon := sim.Time(0).Add(s.Opts.Horizon)
	for !done() && s.Eng.Now() < horizon {
		s.Eng.Run(s.Eng.Now().Add(250 * sim.Millisecond))
	}
	ok := done()
	s.K.Finalize()
	s.CloseTrace() // after Finalize so trailing accounting is included
	s.K.Shutdown()
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

// mixWorkloads builds the DAG of every application of mix, once, in
// arrival order. A built threads.Workload is immutable, so a figure
// hands the same values to each of its runs — control off and on, every
// seed, every policy — including runs on concurrent parallelFor
// goroutines, instead of rebuilding identical DAGs per run.
func mixWorkloads(mix []Fig4Arrival) []*threads.Workload {
	wls := make([]*threads.Workload, len(mix))
	for i, arr := range mix {
		wls[i] = mustWorkload(arr.App)
	}
	return wls
}

// Solo runs wl alone with the given process count and returns its
// elapsed virtual time.
func Solo(o Options, wl *threads.Workload, procs int, control bool) sim.Duration {
	s := NewSim(o, control)
	app := s.LaunchNow(1, wl, procs)
	ok := s.RunUntil(app.Done)
	s.mustFinish(ok, wl.Name)
	return app.Elapsed()
}

// SeqTime returns the single-process, no-control run time of wl — the
// numerator of every speedup in the paper's figures.
func SeqTime(o Options, wl func() *threads.Workload) sim.Duration {
	return Solo(o, wl(), 1, false)
}

// parallelFor runs fn(0..n-1) on up to GOMAXPROCS host goroutines. Each
// experiment run owns an independent engine, so runs are trivially
// parallel; results stay deterministic because they depend only on the
// per-run seed.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//procctl:allow-nondeterminism host parallelism over independent runs: each fn(i) owns its engine, results depend only on the per-run seed
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// simRun is one simulation of a sweep, and the process count it runs.
type simRun struct {
	procs int
	run   func()
}

// fanOut runs every simulation of a figure through one parallelFor, the
// largest process counts first so that the long runs do not end up alone
// at the tail. The order cannot show in the results (see parallelFor).
func fanOut(runs []simRun) {
	slices.SortStableFunc(runs, func(a, b simRun) int { return b.procs - a.procs })
	parallelFor(len(runs), func(i int) { runs[i].run() })
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
