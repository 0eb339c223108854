package experiments

import (
	"fmt"
	"strings"

	"procctl/internal/sim"
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
	parallelFor(len(wls), func(i int) { wls[i] = mustWorkload(appNames[i]) })
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

// fig3Curves runs every simulation behind the panels of wls as one flat
// fan-out: per application a one-process baseline and, per (procs,
// seed), control off and control on as separate runs.
func fig3Curves(o Options, wls []*threads.Workload, procsList []int) []Fig3Curve {
	if len(procsList) == 0 {
		procsList = []int{1, 2, 4, 8, 12, 16, 20, 24}
	}
	np, ns := len(procsList), o.Seeds
	t1 := make([]sim.Duration, len(wls))
	cells := make([][2]sim.Duration, len(wls)*np*ns) // [app][procs][seed][off, on]
	var runs []simRun
	for a, wl := range wls {
		runs = append(runs, simRun{1, func() { t1[a] = Solo(o, wl, 1, false) }})
		for pi, procs := range procsList {
			for si := 0; si < ns; si++ {
				oo, cell := o, &cells[(a*np+pi)*ns+si]
				oo.Seed = o.Seed + uint64(si)
				runs = append(runs,
					simRun{procs, func() { cell[0] = Solo(oo, wl, procs, false) }},
					simRun{procs, func() { cell[1] = Solo(oo, wl, procs, true) }})
			}
		}
	}
	fanOut(runs)

	curves := make([]Fig3Curve, len(wls))
	for a, wl := range wls {
		c := Fig3Curve{App: wl.Name, Procs: procsList}
		for pi := range procsList {
			var offs, ons []float64
			for _, cell := range cells[(a*np+pi)*ns:][:ns] {
				offs = append(offs, t1[a].Seconds()/cell[0].Seconds())
				ons = append(ons, t1[a].Seconds()/cell[1].Seconds())
			}
			c.Uncontrolled = append(c.Uncontrolled, mean(offs))
			c.Controlled = append(c.Controlled, mean(ons))
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
