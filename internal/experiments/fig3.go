package experiments

import (
	"fmt"
	"strings"

	"procctl/internal/threads"
	"procctl/internal/trace"
)

// Fig3Apps lists the four applications of the paper's Figure 3 in its
// panel order.
var Fig3Apps = []string{"fft", "sort", "gauss", "matmul"}

// Fig3Curve is one panel of Figure 3: one application's speed-up versus
// process count, with the original threads package (Uncontrolled) and
// with the process-controlled package (Controlled).
type Fig3Curve struct {
	App          string
	Procs        []int
	Uncontrolled []float64
	Controlled   []float64
}

// Fig3Result holds all four panels.
type Fig3Result struct {
	Curves []Fig3Curve
}

// Fig3 reproduces Figure 3: each application alone on the machine,
// process count swept, with and without process control.
func Fig3(o Options, procsList []int, appNames ...string) *Fig3Result {
	o = o.withDefaults()
	if len(appNames) == 0 {
		appNames = Fig3Apps
	}
	wls := make([]*threads.Workload, len(appNames))
	for i, name := range appNames {
		wls[i] = mustWorkload(name)
	}
	return &Fig3Result{Curves: fig3Curves(o, wls, procsList)}
}

// Custom runs an arbitrary workload (e.g. one loaded from a JSON spec)
// through the Figure 3 protocol: speed-up versus process count with the
// original and the process-controlled package. builder is called once;
// the workload it returns backs every run of the curve, concurrent ones
// included (a built threads.Workload is immutable).
func Custom(o Options, builder func() *threads.Workload, procsList []int) Fig3Curve {
	return fig3Curves(o.withDefaults(), []*threads.Workload{builder()}, procsList)[0]
}

// fig3Curves runs every simulation behind the panels of wls as one
// fan-out: per application a one-process baseline and, per process
// count, control off and control on on each seed.
func fig3Curves(o Options, wls []*threads.Workload, procsList []int) []Fig3Curve {
	if len(procsList) == 0 {
		procsList = []int{1, 2, 4, 8, 12, 16, 20, 24}
	}
	var runs []simRun
	for _, wl := range wls {
		runs = append(runs, solo(o, wl, 1, false))
		for _, procs := range procsList {
			runs = append(runs, perSeed(solo(o, wl, procs, false))...)
			runs = append(runs, perSeed(solo(o, wl, procs, true))...)
		}
	}
	outs := fanOut(runs, simRun.procs, runSim)

	curves := make([]Fig3Curve, len(wls))
	for a, wl := range wls {
		t1 := outs[0].elapsed[0]
		outs = outs[1:]
		c := Fig3Curve{App: wl.Name, Procs: procsList}
		for range procsList {
			off, on := outs[:o.Seeds], outs[o.Seeds:][:o.Seeds]
			c.Uncontrolled = append(c.Uncontrolled, meanSpeedup(t1, off, 0))
			c.Controlled = append(c.Controlled, meanSpeedup(t1, on, 0))
			outs = outs[2*o.Seeds:]
		}
		curves[a] = c
	}
	return curves
}

// Curve returns the named panel, or nil.
func (r *Fig3Result) Curve(app string) *Fig3Curve {
	for i := range r.Curves {
		if r.Curves[i].App == app {
			return &r.Curves[i]
		}
	}
	return nil
}

// At returns the (uncontrolled, controlled) speed-ups at a process
// count.
func (c *Fig3Curve) At(procs int) (off, on float64) {
	for i, p := range c.Procs {
		if p == procs {
			return c.Uncontrolled[i], c.Controlled[i]
		}
	}
	return 0, 0
}

// Render prints all panels.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	for _, c := range r.Curves {
		t := trace.NewTable(
			fmt.Sprintf("Figure 3 (%s): speed-up vs processes, original vs process-controlled threads package", c.App),
			"procs", "original", "controlled")
		for i, p := range c.Procs {
			t.Row(p, c.Uncontrolled[i], c.Controlled[i])
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
