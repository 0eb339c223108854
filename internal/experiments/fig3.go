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
	if len(procsList) == 0 {
		procsList = []int{1, 2, 4, 8, 12, 16, 20, 24}
	}
	if len(appNames) == 0 {
		appNames = Fig3Apps
	}
	res := &Fig3Result{}
	for _, name := range appNames {
		res.Curves = append(res.Curves, fig3Curve(o, name, procsList))
	}
	return res
}

func fig3Curve(o Options, name string, procsList []int) Fig3Curve {
	return Custom(o, func() *threads.Workload { return mustWorkload(name) }, procsList)
}

// Custom runs an arbitrary workload (e.g. one loaded from a JSON spec)
// through the Figure 3 protocol: speed-up versus process count with the
// original and the process-controlled package. builder is called once;
// the workload it returns backs every run of the curve, concurrent ones
// included (a built threads.Workload is immutable).
func Custom(o Options, builder func() *threads.Workload, procsList []int) Fig3Curve {
	o = o.withDefaults()
	if len(procsList) == 0 {
		procsList = []int{1, 2, 4, 8, 12, 16, 20, 24}
	}
	wl := builder()
	t1 := Solo(o, wl, 1, false)
	c := Fig3Curve{
		App:          wl.Name,
		Procs:        procsList,
		Uncontrolled: make([]float64, len(procsList)),
		Controlled:   make([]float64, len(procsList)),
	}
	// Two variants per (procs, seed): control off and on.
	n := len(procsList) * o.Seeds
	type pair struct{ off, on float64 }
	cells := make([]pair, n)
	parallelFor(n, func(i int) {
		procs := procsList[i/o.Seeds]
		oo := o
		oo.Seed = o.Seed + uint64(i%o.Seeds)
		off := Solo(oo, wl, procs, false)
		on := Solo(oo, wl, procs, true)
		cells[i] = pair{
			off: t1.Seconds() / off.Seconds(),
			on:  t1.Seconds() / on.Seconds(),
		}
	})
	for pi := range procsList {
		var offs, ons []float64
		for si := 0; si < o.Seeds; si++ {
			offs = append(offs, cells[pi*o.Seeds+si].off)
			ons = append(ons, cells[pi*o.Seeds+si].on)
		}
		c.Uncontrolled[pi] = mean(offs)
		c.Controlled[pi] = mean(ons)
	}
	return c
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
