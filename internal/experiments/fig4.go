package experiments

import (
	"fmt"
	"strings"

	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

// Fig4Arrival describes one application in the multiprogrammed mix of
// Figures 4 and 5: it starts At with Procs processes.
type Fig4Arrival struct {
	App   string
	At    sim.Time
	Procs int
}

// DefaultFig4Mix is the paper's Figure 4 scenario: fft, gauss, and
// matmul started at 10 s intervals, each with 16 processes. The big
// workload instances run for tens of seconds, so the applications
// genuinely share the machine.
func DefaultFig4Mix() []Fig4Arrival {
	return []Fig4Arrival{
		{App: "bigfft", At: 0, Procs: 16},
		{App: "biggauss", At: sim.Time(10 * sim.Second), Procs: 16},
		{App: "bigmatmul", At: sim.Time(20 * sim.Second), Procs: 16},
	}
}

// Fig4Run is one execution of the mix (control on or off).
type Fig4Run struct {
	Control bool
	// Elapsed is each application's wall-clock time from its start to
	// its completion, averaged over seeds, in arrival order.
	Elapsed []sim.Duration
	// Finish is each application's absolute completion time (first
	// seed), in arrival order.
	Finish []sim.Time
	// Samples is the runnable-process time series of the first seed's
	// run — the paper's Figure 5 plot for this mix.
	Samples []trace.Sample
	// AppIDs maps arrival order to kernel AppID (1-based) for reading
	// Samples.
	AppIDs []kernel.AppID
}

// Fig4Result pairs the uncontrolled and controlled runs.
type Fig4Result struct {
	Mix []Fig4Arrival
	Off Fig4Run
	On  Fig4Run
}

// Fig4 reproduces Figures 4 and 5: the multiprogrammed mix with and
// without process control, recording completion times and the
// runnable-process time series.
func Fig4(o Options, mix []Fig4Arrival) *Fig4Result {
	o = o.withDefaults()
	if len(mix) == 0 {
		mix = DefaultFig4Mix()
	}
	res := &Fig4Result{Mix: mix}
	wls := mixWorkloads(mix)
	res.Off = fig4Run(o, mix, wls, false)
	res.On = fig4Run(o, mix, wls, true)
	return res
}

// fig4Run executes the mix once per seed; wls are the mix's prebuilt
// workloads (mixWorkloads), shared by every seed.
func fig4Run(o Options, mix []Fig4Arrival, wls []*threads.Workload, control bool) Fig4Run {
	run := Fig4Run{Control: control, Elapsed: make([]sim.Duration, len(mix))}
	sums := make([]sim.Duration, len(mix))
	type out struct {
		elapsed []sim.Duration
		finish  []sim.Time
		samples []trace.Sample
		ids     []kernel.AppID
	}
	outs := make([]out, o.Seeds)
	parallelFor(o.Seeds, func(si int) {
		oo := o
		oo.Seed = o.Seed + uint64(si)
		s := NewSim(oo, control)
		sampler := trace.NewSampler(s.K, 250*sim.Millisecond)
		slots := make([]**threads.App, len(mix))
		ids := make([]kernel.AppID, len(mix))
		for i, arr := range mix {
			ids[i] = kernel.AppID(i + 1)
			slots[i] = s.LaunchAt(arr.At, ids[i], wls[i], arr.Procs)
		}
		ok := s.RunUntil(func() bool {
			for _, sl := range slots {
				if *sl == nil || !(*sl).Done() {
					return false
				}
			}
			return true
		})
		s.mustFinish(ok, "fig4 mix")
		sampler.Stop()
		var e []sim.Duration
		var f []sim.Time
		for i := range mix {
			e = append(e, (*slots[i]).Elapsed())
			f = append(f, mix[i].At.Add((*slots[i]).Elapsed()))
		}
		outs[si] = out{elapsed: e, finish: f, samples: sampler.Samples, ids: ids}
	})
	for si := range outs {
		for i := range mix {
			sums[i] += outs[si].elapsed[i]
		}
	}
	for i := range mix {
		run.Elapsed[i] = sums[i] / sim.Duration(o.Seeds)
	}
	run.Finish = outs[0].finish
	run.Samples = outs[0].samples
	run.AppIDs = outs[0].ids
	return run
}

// ElapsedOf returns the mean wall-clock time of the named application in
// this run, or 0.
func (r *Fig4Result) ElapsedOf(app string, control bool) sim.Duration {
	run := &r.Off
	if control {
		run = &r.On
	}
	for i, arr := range r.Mix {
		if arr.App == app {
			return run.Elapsed[i]
		}
	}
	return 0
}

// Render prints the Figure 4 completion-time table.
func (r *Fig4Result) Render() string {
	t := trace.NewTable(
		"Figure 4: wall-clock execution time in the multiprogrammed mix (16 procs each, staggered starts)",
		"app", "start", "no control", "with control", "ratio")
	for i, arr := range r.Mix {
		off := r.Off.Elapsed[i]
		on := r.On.Elapsed[i]
		t.Row(arr.App, arr.At, off, on, off.Seconds()/on.Seconds())
	}
	return t.String()
}

// RenderFig5 prints the runnable-process time series of both runs — the
// paper's Figure 5 — the system-wide total followed by each
// application's own curve (the paper plots both).
func (r *Fig4Result) RenderFig5() string {
	var b strings.Builder
	for _, run := range []*Fig4Run{&r.On, &r.Off} {
		label := "with process control"
		if !run.Control {
			label = "without process control"
		}
		var times []sim.Time
		var counts []int
		for _, smp := range run.Samples {
			times = append(times, smp.At)
			counts = append(counts, smp.Total)
		}
		b.WriteString(trace.AsciiSeries("Figure 5: total runnable processes, "+label, thinTimes(times), thinCounts(counts), 48))
		b.WriteByte('\n')
		for i, id := range run.AppIDs {
			var per []int
			for _, smp := range run.Samples {
				per = append(per, smp.PerApp[id])
			}
			title := fmt.Sprintf("  %s runnable processes, %s", r.Mix[i].App, label)
			b.WriteString(trace.AsciiSeries(title, thinTimes(times), thinCounts(per), 48))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// thinTimes/thinCounts downsample a 250 ms series to 1 s for printing.
func thinTimes(ts []sim.Time) []sim.Time {
	var out []sim.Time
	for i := 0; i < len(ts); i += 4 {
		out = append(out, ts[i])
	}
	return out
}

func thinCounts(cs []int) []int {
	var out []int
	for i := 0; i < len(cs); i += 4 {
		out = append(out, cs[i])
	}
	return out
}
