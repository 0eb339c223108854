package experiments

import (
	"math"

	"procctl/internal/ctrl"
	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

// DecentralResult is the ABL-DECENTRAL experiment: the paper's
// Section 4.2 claim that distributing the control decision among the
// applications is "too inefficient" and has "stability problems",
// measured against the centralized server on the Figure 4 mix.
type DecentralResult struct {
	Mix   []Fig4Arrival
	Modes []string
	// Elapsed[mode][app] is the wall-clock time per application.
	Elapsed [][]sim.Duration
	// MeanOverload is the time-averaged excess of runnable processes
	// over CPUs.
	MeanOverload []float64
	// Oscillation is the standard deviation of the total runnable count
	// during the fully-overlapped window.
	Oscillation []float64
	// Unfairness is the slowest application's wall-clock divided by the
	// fastest's: decentralized control's first-arrival capture shows up
	// here.
	Unfairness []float64
	// Scans is how many process-table scans the control scheme cost.
	Scans []int64
}

// Decentral compares centralized, decentralized, and damped
// decentralized control on the Figure 4 mix.
func Decentral(o Options, mix []Fig4Arrival) *DecentralResult {
	o = o.withDefaults()
	if len(mix) == 0 {
		mix = DefaultFig4Mix()
	}
	res := &DecentralResult{Mix: mix}
	wls := mixWorkloads(mix)

	type mode struct {
		name string
		make func(k *kernel.Kernel) (threads.Controller, func() int64)
	}
	modes := []mode{
		{"centralized", func(k *kernel.Kernel) (threads.Controller, func() int64) {
			s := ctrl.NewServer(k, o.ScanInterval)
			return s, func() int64 { return s.Scans }
		}},
		{"decentralized", func(k *kernel.Kernel) (threads.Controller, func() int64) {
			d := ctrl.NewDecentralized(k)
			return d, func() int64 { return d.Scans }
		}},
		{"decentralized+damping", func(k *kernel.Kernel) (threads.Controller, func() int64) {
			d := ctrl.NewDecentralized(k)
			d.Damping = 2
			return d, func() int64 { return d.Scans }
		}},
	}

	for _, m := range modes {
		elapsed, overload, osc, scans := runControlledMix(o, mix, wls, m.make)
		res.Modes = append(res.Modes, m.name)
		res.Elapsed = append(res.Elapsed, elapsed)
		res.MeanOverload = append(res.MeanOverload, overload)
		res.Oscillation = append(res.Oscillation, osc)
		lo, hi := elapsed[0], elapsed[0]
		for _, e := range elapsed {
			if e < lo {
				lo = e
			}
			if e > hi {
				hi = e
			}
		}
		res.Unfairness = append(res.Unfairness, float64(hi)/float64(lo))
		res.Scans = append(res.Scans, scans)
	}
	return res
}

// runControlledMix runs the mix (wls: its prebuilt workloads) once
// (first seed) under a custom controller factory and returns per-app
// elapsed, mean overload, runnable-count standard deviation over the
// overlapped window, and the controller's scan count.
func runControlledMix(o Options, mix []Fig4Arrival, wls []*threads.Workload,
	makeCtl func(k *kernel.Kernel) (threads.Controller, func() int64)) ([]sim.Duration, float64, float64, int64) {

	s := NewSim(o, false)
	controller, scans := makeCtl(s.K)
	sampler := trace.NewSampler(s.K, 250*sim.Millisecond)

	slots := make([]**threads.App, len(mix))
	for i, arr := range mix {
		i, arr := i, arr
		slot := new(*threads.App)
		slots[i] = slot
		s.Eng.Schedule(arr.At, func() {
			cfg := s.Opts.Threads
			cfg.Procs = arr.Procs
			cfg.PollInterval = s.Opts.PollInterval
			cfg.Controller = controller
			*slot = threads.Launch(s.K, kernel.AppID(i+1), wls[i], cfg)
		})
	}
	ok := s.RunUntil(func() bool {
		for _, sl := range slots {
			if *sl == nil || !(*sl).Done() {
				return false
			}
		}
		return true
	})
	s.mustFinish(ok, "controlled mix")
	sampler.Stop()

	var elapsed []sim.Duration
	for _, sl := range slots {
		elapsed = append(elapsed, (*sl).Elapsed())
	}

	ncpu := s.K.NumCPU()
	over, n := 0.0, 0
	var window []float64
	lastStart := mix[len(mix)-1].At
	for _, smp := range sampler.Samples {
		if smp.Total > ncpu {
			over += float64(smp.Total - ncpu)
		}
		n++
		if smp.At >= lastStart && smp.At <= lastStart.Add(10*sim.Second) {
			window = append(window, float64(smp.Total))
		}
	}
	if n > 0 {
		over /= float64(n)
	}
	return elapsed, over, stddev(window), scans()
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(xs)-1))
}

// Render prints the comparison.
func (r *DecentralResult) Render() string {
	header := []string{"control"}
	for _, arr := range r.Mix {
		header = append(header, arr.App)
	}
	header = append(header, "mean overload", "oscillation σ", "unfairness", "scans")
	t := trace.NewTable("Ablation: centralized vs decentralized control (paper §4.2)", header...)
	for i, m := range r.Modes {
		cells := []interface{}{m}
		for _, e := range r.Elapsed[i] {
			cells = append(cells, e)
		}
		cells = append(cells, r.MeanOverload[i], r.Oscillation[i], r.Unfairness[i], r.Scans[i])
		t.Row(cells...)
	}
	return t.String()
}
