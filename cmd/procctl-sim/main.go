// Command procctl-sim reproduces the paper's figures and this
// repository's ablations on the simulated Multimax.
//
// Usage:
//
//	procctl-sim [flags] [experiment ...]
//
// Experiments: fig1 fig3 fig4 fig5 policies poll cache quantum unctl decentral latency faults metrics run export all
// (default: fig1 fig3 fig4 fig5).
//
// procctl-sim prints tables and records no traces; procctl-trace
// records a run of the Figure 4-style mix under any policy, and draws
// its CPU timeline with `procctl-trace gantt`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"procctl/internal/apps"
	"procctl/internal/experiments"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "base random seed")
		seeds    = flag.Int("seeds", 3, "seeds averaged per data point")
		quick    = flag.Bool("quick", false, "coarser sweeps for a fast run")
		horizon  = flag.Float64("horizon", 600, "per-run virtual-time bound (seconds)")
		workload = flag.String("workload", "", "JSON workload spec for the run experiment")
		app      = flag.String("app", "fft", "built-in workload for the export experiment")
		asJSON   = flag.Bool("json", false, "print the metrics experiment as JSON instead of a table")
	)
	flag.Parse()

	o := experiments.Options{
		Seed:    *seed,
		Seeds:   *seeds,
		Horizon: sim.DurationOf(*horizon),
	}

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"fig1", "fig3", "fig4", "fig5"}
	}
	if len(names) == 1 && names[0] == "all" {
		names = []string{"fig1", "fig3", "fig4", "fig5", "policies", "poll", "cache", "quantum", "unctl", "decentral", "latency", "faults"}
	}

	procsList := []int{1, 2, 4, 8, 12, 16, 20, 24}
	if *quick {
		procsList = []int{1, 8, 16, 24}
		o.Seeds = 1
	}

	var fig4 *experiments.Fig4Result // shared by fig4 and fig5
	for _, name := range names {
		start := time.Now()
		var out string
		switch name {
		case "fig1":
			out = experiments.Fig1(o, procsList).Render()
		case "fig3":
			out = experiments.Fig3(o, procsList).Render()
		case "fig4":
			if fig4 == nil {
				fig4 = experiments.Fig4(o, nil)
			}
			out = fig4.Render()
		case "fig5":
			if fig4 == nil {
				fig4 = experiments.Fig4(o, nil)
			}
			out = fig4.RenderFig5()
		case "policies":
			out = experiments.PolicyComparison(o, nil).Render()
		case "poll":
			out = experiments.PollSweep(o, nil).Render()
		case "cache":
			out = experiments.CacheSweep(o, nil).Render()
		case "quantum":
			out = experiments.QuantumSweep(o, nil).Render()
		case "unctl":
			out = experiments.UncontrolledMix(o).Render()
		case "latency":
			out = experiments.Latency(o, 24).Render()
		case "decentral":
			out = experiments.Decentral(o, nil).Render()
		case "faults":
			out = experiments.Faults(o).Render()
		case "metrics":
			r := experiments.MetricsDemo(o)
			if *asJSON {
				out = r.JSON()
			} else {
				out = r.Render()
			}
		case "run":
			if *workload == "" {
				fmt.Fprintln(os.Stderr, "procctl-sim: run needs -workload spec.json")
				os.Exit(2)
			}
			out = runCustom(o, *workload, procsList)
		case "export":
			wl := apps.ByName(*app)
			if wl == nil {
				fmt.Fprintf(os.Stderr, "procctl-sim: unknown app %q\n", *app)
				os.Exit(2)
			}
			if err := wl.WriteSpec(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "procctl-sim: %v\n", err)
				os.Exit(1)
			}
			continue
		default:
			fmt.Fprintf(os.Stderr, "procctl-sim: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println(out)
		fmt.Printf("[%s took %v]\n%s\n", name, time.Since(start).Round(time.Millisecond), strings.Repeat("=", 72))
	}
}

// runCustom sweeps a user-supplied workload spec through the Figure 3
// protocol.
func runCustom(o experiments.Options, path string, procsList []int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "procctl-sim: %v\n", err)
		os.Exit(1)
	}
	builder := func() *threads.Workload {
		wl, err := threads.ParseSpec(bytes.NewReader(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "procctl-sim: %v\n", err)
			os.Exit(1)
		}
		return wl
	}
	c := experiments.Custom(o, builder, procsList)
	t := trace.NewTable(
		fmt.Sprintf("Custom workload %q: speed-up vs processes, original vs controlled", c.App),
		"procs", "original", "controlled")
	for i, p := range c.Procs {
		t.Row(p, c.Uncontrolled[i], c.Controlled[i])
	}
	return t.String()
}
