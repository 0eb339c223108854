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
// Stdout is the tables alone (wall times go to stderr): `procctl-sim all
// > cmd/procctl-sim/testdata/all.golden` regenerates the published render.
//
// procctl-sim prints tables and records no traces; procctl-trace
// records a run of the Figure 4-style mix under any policy, and draws
// its CPU timeline with `procctl-trace gantt`.
package main

import (
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it renders each experiment that args names
// to stdout and returns the exit status, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("procctl-sim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 1, "base random seed")
		seeds    = fs.Int("seeds", 3, "seeds averaged per data point")
		horizon  = fs.Float64("horizon", 600, "per-run virtual-time bound (seconds)")
		workload = fs.String("workload", "", "JSON workload spec for the run experiment")
		app      = fs.String("app", "fft", "built-in workload for the export experiment")
		asJSON   = fs.Bool("json", false, "print the metrics experiment as JSON instead of a table")
	)
	fs.Parse(args)
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "procctl-sim: "+format+"\n", a...)
		return code
	}

	o := experiments.Options{Seed: *seed, Seeds: *seeds, Horizon: sim.DurationOf(*horizon)}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"fig1", "fig3", "fig4", "fig5"}
	}
	if len(names) == 1 && names[0] == "all" {
		names = []string{"fig1", "fig3", "fig4", "fig5", "policies", "poll", "cache", "quantum", "unctl", "decentral", "latency", "faults"}
	}

	var fig4 *experiments.Fig4Result // shared by fig4 and fig5
	for _, name := range names {
		start := time.Now()
		var out string
		switch name {
		case "fig1":
			out = experiments.Fig1(o, nil).Render()
		case "fig3":
			out = experiments.Fig3(o, nil).Render()
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
				return fail(2, "run needs -workload spec.json")
			}
			var err error
			if out, err = runCustom(o, *workload); err != nil {
				return fail(1, "%v", err)
			}
		case "export":
			wl := apps.ByName(*app)
			if wl == nil {
				return fail(2, "unknown app %q", *app)
			}
			if err := wl.WriteSpec(stdout); err != nil {
				return fail(1, "%v", err)
			}
			continue
		default:
			return fail(2, "unknown experiment %q", name)
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stderr, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
	}
	return 0
}

// runCustom sweeps a user-supplied workload spec through the Figure 3
// protocol.
func runCustom(o experiments.Options, path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	wl, err := threads.ParseSpec(f)
	if err != nil {
		return "", err
	}
	c := experiments.Custom(o, func() *threads.Workload { return wl }, nil)
	t := trace.NewTable(
		fmt.Sprintf("Custom workload %q: speed-up vs processes, original vs controlled", c.App),
		"procs", "original", "controlled")
	for i, p := range c.Procs {
		t.Row(p, c.Uncontrolled[i], c.Controlled[i])
	}
	return t.String(), nil
}
