// Command benchmark is the repository's benchmark: five workloads over
// the simulator (sim_fig4, sim_sweep), the live control plane
// (fleet_poll, fleet_churn) and the adaptive pool (pool_tasks), each
// checked for correctness and reported as named metrics with units.
// README.md in this directory explains every workload and metric;
// BENCHMARK.json at the repository root is the contract the metric
// names, units and regression bounds are fixed in.
//
// It is its own module (go.mod beside this file) whose path sits under
// procctl/, which is what lets it import procctl/internal/... while
// living outside the root module's build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"procctl/internal/experiments"
)

// env is what one workload run receives.
type env struct {
	seed    uint64
	budget  time.Duration // how long the timed repetitions may take in total
	tr      *tracer       // nil when untraced
	sz      sizes
	scratch string // directory for temp sockets and journals
	log     io.Writer
}

// sizes are the workload dimensions. fullSizes is what BENCHMARK.json
// measures; the smoke test runs the same code at toy sizes.
type sizes struct {
	members      int // fleet size M
	pollsPerRep  int
	cyclesPerRep int
	churnPct     int // share of members unregistered and re-registered per cycle
	tasksPerRep  int
	spinMeanIter int // mean spin-loop iterations of a pool task
	setupReps    int // how many times set-up is run for its median
	simSetupReps int // the same for the simulator workloads, whose set-up is a whole serial pass
	recoverReps  int // timed journal recoveries in a traced run
	pacedRate    int // open-loop polls per second in the traced paced phase
	pacedSeconds float64
	probeIters   int   // iterations of each layer micro-probe
	stubFleets   []int // member counts for the rebalance/allocate probes
	// fig4Mix is the sim_fig4 mix (nil = the paper's, DefaultFig4Mix);
	// sweepProcs and sweepApps are what sim_sweep passes to Fig1/Fig3.
	fig4Mix    []experiments.Fig4Arrival
	sweepProcs []int
	sweepApps  []string
	golden     bool   // compare seed 1 against golden_seed1.json
	minReps    int    // timed repetitions at least, whatever the budget
	calibIters uint64 // iterations of the host-noise calibration loop
}

var fullSizes = sizes{
	members:      2000,
	pollsPerRep:  30_000,
	cyclesPerRep: 8,
	churnPct:     2,
	tasksPerRep:  80_000,
	spinMeanIter: 2400,
	setupReps:    5,
	simSetupReps: 3,
	recoverReps:  3,
	pacedRate:    20_000,
	pacedSeconds: 3,
	probeIters:   200_000,
	stubFleets:   []int{200, 2000, 10000},
	sweepProcs:   []int{8, 16, 24},
	sweepApps:    []string{"fft", "sort", "gauss", "matmul"},
	golden:       true,
	minReps:      3,
	calibIters:   30_000_000,
}

// report collects what a workload measured and checked.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	warnings  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// ok counts n operations that were attempted and passed their checks.
func (r *report) ok(n int) { r.attempted += int64(n) }

// fail counts one attempted operation whose output was wrong or that
// returned an error; the first few messages are kept for the log.
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(*env) *report
}

var workloads = []workload{
	{"sim_fig4", runSimFig4},
	{"sim_sweep", runSimSweep},
	{"fleet_poll", runFleetPoll},
	{"fleet_churn", runFleetChurn},
	{"pool_tasks", runPoolTasks},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// calibrate times a fixed arithmetic loop: a figure that depends only on
// the host, so a slow or noisy machine shows next to the numbers. The
// fastest of three passes is reported, which a passing neighbour on a
// shared host disturbs least.
func calibrate(iters uint64) time.Duration {
	var best time.Duration
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := uint64(0); i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		if d := time.Since(start); pass == 0 || d < best {
			best = d
		}
	}
	return best
}

var calibSink uint64

// outcome is the last line of a run: the driver's result object.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload and prints its table and result line.
func runOne(w *workload, seed uint64, seconds float64, traced bool, sz sizes, scratch, outDir string, log io.Writer) (*outcome, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	e := &env{
		seed:    seed,
		budget:  time.Duration(seconds * float64(time.Second)),
		sz:      sz,
		scratch: dir,
		log:     log,
	}
	if traced {
		e.tr = newTracer()
	}
	fmt.Fprintf(log, "== %s  seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0))

	calibBefore := calibrate(sz.calibIters)
	rep := w.run(e)
	calibAfter := calibrate(sz.calibIters)

	lo, hi := calibBefore, calibAfter
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi-lo) > 0.10*float64(lo) {
		rep.warnings = append(rep.warnings, fmt.Sprintf(
			"host calibration loop took %.1f ms before and %.1f ms after the workload (>10%% apart): this host is noisy, read the numbers with care",
			ms(calibBefore), ms(calibAfter)))
	}

	defs := endToEnd
	if traced {
		defs = perLayer
		rep.set("harness.calib_ms", (ms(calibBefore)+ms(calibAfter))/2)
		spans := e.tr.snapshot()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, fmt.Errorf("trace dir: %w", err)
		}
		path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "  %d spans written to %s; self time (span minus children):\n", len(spans), path)
		printSelfTable(log, selfTimes(spans))
	}

	out := &outcome{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metric{Value: rep.values[d.Name], Unit: d.Unit}
	}
	// A value set under a name the contract does not know is a bug in
	// the harness, not a measurement.
	var stray []string
	for name := range rep.values {
		if _, ok := out.Metrics[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("workload %s set metrics outside the contract: %s", w.name, strings.Join(stray, ", "))
	}

	for _, d := range defs {
		fmt.Fprintf(log, "  %-36s %16.4f %s\n", d.Name, rep.values[d.Name], d.Unit)
	}
	fmt.Fprintf(log, "  %-36s %16.6f (failed %d of %d)\n", "error_rate",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintf(log, "  FAIL: %s\n", p)
	}
	for _, wmsg := range rep.warnings {
		fmt.Fprintf(log, "  WARNING: %s\n", wmsg)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 15, "how long the timed repetitions of a workload run")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		aa      = flag.Int("aa", 0, "A/A self-check: run this many sets of the same tree and compare them against the bounds in BENCHMARK.json")
		runs    = flag.Int("runs", 10, "with -aa: runs per workload in a set, each on its own seed")
		scratch = flag.String("scratch", filepath.Join(".bench_build", "scratch"), "directory for temp sockets and journals (a short relative path keeps unix socket names under their 108-byte limit)")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.jsonl")
		golden  = flag.Bool("golden", false, "print golden_seed1.json as this tree produces it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}
	// The default paths are relative to the checkout root, so that
	// socket names stay short wherever the checkout lives; run.sh
	// starts there, `go run .` in this directory is moved there.
	if err := enterCheckoutRoot(); err != nil {
		fatalf("%v", err)
	}

	if *golden {
		b, err := goldenSeed1(fullSizes)
		if err != nil {
			fatalf("golden: %v", err)
		}
		os.Stdout.Write(b)
		return
	}

	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fatalf("unknown workload %q (want all or one of %s)", *name, workloadNames())
	}

	if *aa > 0 {
		os.Exit(selfCheck(selected, *aa, *runs, *seed, *seconds))
	}

	exit := 0
	for _, w := range selected {
		out, err := runOne(w, *seed, *seconds, *trace != 0, fullSizes, *scratch, *outDir, os.Stdout)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		line, err := json.Marshal(out)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		fmt.Printf("%s\n", line)
		if !out.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}

// enterCheckoutRoot changes to the nearest directory at or above the
// current one that holds BENCHMARK.json.
func enterCheckoutRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return os.Chdir(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return fmt.Errorf("no BENCHMARK.json at or above the current directory: run from inside a checkout")
		}
		dir = parent
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
