// Command procctl-trace records and analyzes causal scheduling traces
// from the simulator.
//
//	procctl-trace record [-out trace.jsonl] [-control] [-policy P] [-seconds N]
//	    runs the Figure 4-style mix and writes a JSONL scheduling trace
//	procctl-trace summary [-in trace.jsonl]
//	    aggregates a trace into per-application state residency
//	procctl-trace analyze [-in trace.jsonl]
//	    attributes every process's time to the paper's wasted-cycle
//	    categories (useful work, spin on preempted/running holder,
//	    context switch, cache reload, ready-queue wait, suspension)
//	procctl-trace export -format chrome [-in trace.jsonl] [-out out.json]
//	    converts a trace to Chrome trace-event JSON for ui.perfetto.dev
//	procctl-trace export -source daemon -daemon-events d.jsonl [-client-events a.jsonl,b.jsonl]
//	            [-journal DIR] [-out out.json]
//	    merges a live daemon's flight-ring dump (procctl-top -events -json),
//	    client ring dumps (procctl-top -hold-events), and its journal into
//	    one wall-clock Perfetto timeline with decision→apply→settle flow
//	    arrows across process boundaries
//	procctl-trace check [-in out.json] [-require-flows]
//	    validates an export from either source (well-formed trace events,
//	    balanced flow arrows; -require-flows also demands a cross-process
//	    flow, which only the daemon export draws)
//
// With no file flags, record writes to stdout and the readers read
// stdin, so the stages compose:
//
//	procctl-trace record -control | procctl-trace analyze
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"path/filepath"
	"strings"

	"procctl/internal/apps"
	"procctl/internal/experiments"
	"procctl/internal/flight"
	"procctl/internal/journal"
	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "summary":
		summary(os.Args[2:])
	case "analyze":
		analyze(os.Args[2:])
	case "export":
		export(os.Args[2:])
	case "check":
		check(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: procctl-trace record|summary|analyze|export|check [flags]")
	os.Exit(2)
}

// openInput resolves the conventional -in flag: a named file, or stdin.
func openInput(path string) io.ReadCloser {
	if path == "" {
		return os.Stdin
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("procctl-trace: %v", err)
	}
	return f
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out     = fs.String("out", "", "trace file (default stdout)")
		seed    = fs.Uint64("seed", 1, "random seed")
		policy  = fs.String("policy", "timeshare", "scheduling policy")
		control = fs.Bool("control", false, "enable process control")
		seconds = fs.Float64("seconds", 10, "virtual seconds to trace")
	)
	fs.Parse(args)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("procctl-trace: %v", err)
		}
		defer f.Close()
		w = f
	}

	o := experiments.Options{Seed: *seed, Seeds: 1}
	names, factories := experiments.NamedPolicies()
	factory, ok := factories[*policy]
	if !ok {
		log.Fatalf("procctl-trace: unknown policy %q (have %v)", *policy, names)
	}
	o.NewPolicy = factory

	s := experiments.NewSim(o, *control)
	rec := trace.NewRecorder(s.K, w, trace.Meta{Seed: *seed, Control: *control})
	cfg := threads.Config{Procs: 12}
	if s.Server != nil {
		cfg.Controller = s.Server
	}
	threads.Launch(s.K, kernel.AppID(1), apps.PaperMatmul(), cfg)
	threads.Launch(s.K, kernel.AppID(2), apps.PaperFFT(), cfg)
	apps.Background(s.K, 2, 20*sim.Millisecond, 30*sim.Millisecond)

	s.Eng.Run(sim.Time(sim.DurationOf(*seconds)))
	s.K.Finalize()
	if err := rec.Close(); err != nil {
		log.Fatalf("procctl-trace: %v", err)
	}
	s.K.Shutdown()
	fmt.Fprintf(os.Stderr, "procctl-trace: %d events over %.1fs virtual time\n", rec.Events(), *seconds)
}

func summary(args []string) {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	in := fs.String("in", "", "trace file (default stdin)")
	fs.Parse(args)

	r := openInput(*in)
	defer r.Close()
	sum, err := trace.ReadSummary(r)
	if err != nil {
		log.Fatalf("procctl-trace: %v", err)
	}
	fmt.Print(sum.Render())
}

func analyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "", "trace file (default stdin)")
	fs.Parse(args)

	r := openInput(*in)
	defer r.Close()
	att, err := trace.ReadAttribution(r)
	if err != nil {
		log.Fatalf("procctl-trace: %v", err)
	}
	fmt.Print(att.Render())
}

func export(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "trace file (default stdin)")
		out     = fs.String("out", "", "output file (default stdout)")
		format  = fs.String("format", "chrome", "output format (chrome)")
		source  = fs.String("source", "sim", "input source: sim (a scheduling trace) or daemon (flight/journal dumps)")
		daemon  = fs.String("daemon-events", "", "daemon flight-ring dump, JSONL (procctl-top -events -json); daemon source only")
		clients = fs.String("client-events", "", "comma-separated client ring dumps, JSONL (procctl-top -hold-events); daemon source only")
		jdir    = fs.String("journal", "", "daemon journal directory to merge; daemon source only")
	)
	fs.Parse(args)
	if *format != "chrome" {
		log.Fatalf("procctl-trace: unknown export format %q (have: chrome)", *format)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("procctl-trace: %v", err)
		}
		defer f.Close()
		w = f
	}

	switch *source {
	case "sim":
		r := openInput(*in)
		defer r.Close()
		if err := trace.WriteChrome(r, w); err != nil {
			log.Fatalf("procctl-trace: %v", err)
		}
	case "daemon":
		tl, err := loadDaemonTimeline(*daemon, *clients, *jdir)
		if err != nil {
			log.Fatalf("procctl-trace: %v", err)
		}
		if err := trace.WriteDaemonChrome(tl, w); err != nil {
			log.Fatalf("procctl-trace: %v", err)
		}
	default:
		log.Fatalf("procctl-trace: unknown export source %q (have: sim, daemon)", *source)
	}
}

// loadDaemonTimeline assembles the merged-export input: the daemon's
// ring dump unioned with journal-derived events, plus one client
// timeline per dump file. At least one daemon-side input is required.
func loadDaemonTimeline(daemonPath, clientPaths, journalDir string) (trace.DaemonTimeline, error) {
	var tl trace.DaemonTimeline
	if daemonPath == "" && journalDir == "" {
		return tl, fmt.Errorf("daemon export needs -daemon-events and/or -journal")
	}
	if daemonPath != "" {
		evs, err := readDump(daemonPath)
		if err != nil {
			return tl, err
		}
		tl.Daemon = evs
	}
	if journalDir != "" {
		_, recs, err := journal.ReadAll(journalDir)
		if err != nil {
			return tl, fmt.Errorf("journal %s: %w", journalDir, err)
		}
		tl.Daemon = trace.MergeFlightEvents(tl.Daemon, recs)
	}
	if clientPaths != "" {
		for _, path := range strings.Split(clientPaths, ",") {
			evs, err := readDump(path)
			if err != nil {
				return tl, err
			}
			tl.Clients = append(tl.Clients, trace.ClientTimeline{Name: clientLabel(path, evs), Events: evs})
		}
	}
	return tl, nil
}

// readDump reads one flight-ring dump file.
func readDump(path string) ([]flight.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := flight.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

// clientLabel names a client track after the member the dump belongs
// to (the app on its apply/settle events), falling back to the file
// name for rings that never applied a target.
func clientLabel(path string, evs []flight.Event) string {
	for _, ev := range evs {
		if (ev.Kind == flight.KindApply || ev.Kind == flight.KindSettle) && ev.App != "" {
			return ev.App
		}
	}
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// check validates an exported timeline of either source: CI runs it
// against the trace smoke's sim export and the daemon smoke's merged
// export instead of shelling out to jq/python.
func check(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "exported trace JSON (default stdin)")
		require = fs.Bool("require-flows", false, "fail unless at least one flow crosses process boundaries")
	)
	fs.Parse(args)
	r := openInput(*in)
	defer r.Close()
	ck, err := trace.CheckChrome(r)
	if err != nil {
		log.Fatalf("procctl-trace: check: %v", err)
	}
	if *require && ck.CrossProcess == 0 {
		log.Fatalf("procctl-trace: check: no cross-process flow arrows (%d events, %d flows)", ck.Events, ck.Flows)
	}
	fmt.Printf("ok: %d events, %d processes, %d flows (%d cross-process)\n",
		ck.Events, ck.Processes, ck.Flows, ck.CrossProcess)
}
