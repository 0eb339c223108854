package experiments

import (
	"math"
	"slices"

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
	res := &DecentralResult{Mix: mix, Modes: []string{"centralized", "decentralized", "decentralized+damping"}}
	decentral := func(damping int) func(*kernel.Kernel) threads.Controller {
		return func(k *kernel.Kernel) threads.Controller {
			d := ctrl.NewDecentralized(k)
			d.Damping = damping
			return d
		}
	}
	mixRun := simRun{o: o, apps: mixLaunches(mix), staggered: true, sample: true}
	runs := []simRun{mixRun, mixRun, mixRun} // first seed only
	runs[0].control = true
	runs[1].ctl, runs[2].ctl = decentral(0), decentral(2)
	res.Scans = make([]int64, len(runs))
	for m := range runs {
		runs[m].read = func(s *Sim, _ []*threads.App) {
			if d, ok := s.ctl.(*ctrl.Decentralized); ok {
				res.Scans[m] = d.Scans
			} else {
				res.Scans[m], _ = s.K.Metrics().Value(ctrl.MetricScans)
			}
		}
	}

	lastStart := mix[len(mix)-1].At
	for _, out := range fanOut(runs, simRun.procs, runSim) {
		res.Elapsed = append(res.Elapsed, out.elapsed)
		res.MeanOverload = append(res.MeanOverload, meanOverload(out.samples, o.Machine.NumCPU))
		// The runnable count's spread while every application runs.
		var window []float64
		for _, smp := range out.samples {
			if smp.At >= lastStart && smp.At <= lastStart.Add(10*sim.Second) {
				window = append(window, float64(smp.Total()))
			}
		}
		res.Oscillation = append(res.Oscillation, stddev(window))
		lo, hi := slices.Min(out.elapsed), slices.Max(out.elapsed)
		res.Unfairness = append(res.Unfairness, float64(hi)/float64(lo))
	}
	return res
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
