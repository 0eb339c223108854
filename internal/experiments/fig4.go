package experiments

import (
	"fmt"
	"strings"

	"procctl/internal/kernel"
	"procctl/internal/sim"
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
	mixRun := simRun{o: o, apps: mixLaunches(mix), staggered: true, sample: true}
	runs := perSeed(mixRun)
	mixRun.control = true
	outs := fanOut(append(runs, perSeed(mixRun)...), simRun.procs, runSim)
	n := len(outs) / 2
	return &Fig4Result{Mix: mix, Off: fig4Fold(mix, outs[:n], false), On: fig4Fold(mix, outs[n:], true)}
}

// fig4Fold folds the runs of the mix on every seed into one Fig4Run.
func fig4Fold(mix []Fig4Arrival, outs []simOut, control bool) Fig4Run {
	run := Fig4Run{Control: control, Elapsed: meanElapsed(outs), Samples: outs[0].samples}
	for i, arr := range mix {
		run.Finish = append(run.Finish, arr.At.Add(outs[0].elapsed[i]))
		run.AppIDs = append(run.AppIDs, kernel.AppID(i+1))
	}
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
