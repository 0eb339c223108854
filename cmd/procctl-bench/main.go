// Command procctl-bench is the performance-regression harness: it runs
// the curated benchmark subset programmatically (the engine/kernel
// microbenchmarks plus the Fig4 end-to-end run and the recorded-trace
// second), writes a schema'd BENCH_<date>.json, and — when given a
// baseline — fails on >threshold ns/op regression or ANY allocs/op
// increase (allocation counts are deterministic, so zero drift is the
// correct tolerance).
//
//	procctl-bench [-benchtime 1s] [-baseline bench/BENCH_baseline.json]
//	              [-threshold 0.10] [-out BENCH_<date>.json]
//
// Regenerate the baseline on a quiet machine of the same runner class:
//
//	go run ./cmd/procctl-bench -out bench/BENCH_baseline.json
//
// The raw per-figure suite remains `go test -bench=.` (make bench-go);
// this binary is the curated regression gate wired into `make bench`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"procctl/internal/apps"
	"procctl/internal/experiments"
	"procctl/internal/flight"
	"procctl/internal/journal"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/metrics"
	"procctl/internal/runtime/coordinator"
	"procctl/internal/runtime/pool"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

const schema = "procctl-bench/1"

// result is one benchmark's measurement, serialized into the report.
type result struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	WallSeconds  float64 `json:"wall_seconds,omitempty"`
	// Latency quantiles in microseconds, for benchmarks that measure a
	// distribution rather than a single mean (FleetRebalance reports the
	// coordinator's stage="total" rebalance span).
	P50Us  int64 `json:"p50_us,omitempty"`
	P99Us  int64 `json:"p99_us,omitempty"`
	P999Us int64 `json:"p999_us,omitempty"`
	// Fleet-convergence quantiles in microseconds: decision-to-settled
	// latency of rebalance epochs, from
	// coordinator_convergence_latency_micros{outcome="settled"}
	// (FleetRebalance, where every epoch is acked over the wire).
	ConvP50Us  int64 `json:"convergence_p50_us,omitempty"`
	ConvP99Us  int64 `json:"convergence_p99_us,omitempty"`
	ConvP999Us int64 `json:"convergence_p999_us,omitempty"`
	// Fleet10k extras: how long the register storm took to admit the
	// whole fleet, and the admission/batching counters that show the
	// scaling machinery actually engaged during the run.
	StormSeconds   float64 `json:"storm_seconds,omitempty"`
	ShedRegisters  int64   `json:"shed_registers,omitempty"`
	BatchFlushes   int64   `json:"batch_flushes,omitempty"`
	BatchCoalesced int64   `json:"batch_coalesced,omitempty"`
}

// report is the BENCH_<date>.json file, schema procctl-bench/1.
type report struct {
	Schema     string   `json:"schema"`
	Date       string   `json:"date"`
	Go         string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []result `json:"benchmarks"`
}

// metric selects the derived column a benchmark reports beyond the
// standard ns/op, B/op, allocs/op.
type metric int

const (
	plain  metric = iota
	events        // throughput benchmarks: ops/sec
	wall          // end-to-end runs: seconds per op
)

type bench struct {
	name  string
	extra metric
	fn    func(b *testing.B)
	// after, when set, annotates the result with measurements the
	// benchmark captured beyond the testing.B counters (e.g. latency
	// quantiles from a metrics registry).
	after func(res *result)
}

func main() {
	var (
		benchtime = flag.String("benchtime", "1s", "per-benchmark measuring time (test.benchtime syntax)")
		baseline  = flag.String("baseline", "", "baseline JSON to compare against (empty: record only)")
		threshold = flag.Float64("threshold", 0.10, "allowed fractional ns/op regression")
		out       = flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
		fleet     = flag.Int("fleet", 10_000, "client count for the Fleet10k storm benchmark")
	)
	// testing.Benchmark honors the standard test.benchtime flag; route
	// ours through it so `make bench BENCH_TIME=100ms` works.
	testing.Init()
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fatalf("bad -benchtime %q: %v", *benchtime, err)
	}

	rep := report{
		Schema: schema,
		Date:   time.Now().Format("2006-01-02"),
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
	}
	for _, bm := range curated(*fleet) {
		fmt.Fprintf(os.Stderr, "procctl-bench: %s...\n", bm.name)
		r := testing.Benchmark(bm.fn)
		res := result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		switch bm.extra {
		case events:
			if res.NsPerOp > 0 {
				res.EventsPerSec = 1e9 / res.NsPerOp
			}
		case wall:
			res.WallSeconds = res.NsPerOp / 1e9
		}
		if bm.after != nil {
			bm.after(&res)
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "procctl-bench: wrote %s\n", path)

	if *baseline == "" {
		return
	}
	if !compare(os.Stderr, *baseline, rep, *threshold) {
		os.Exit(1)
	}
}

// compare prints a per-benchmark verdict table and reports whether the
// run is within budget: ns/op may drift up to threshold over the
// baseline, allocs/op may not increase at all.
func compare(w io.Writer, path string, rep report, threshold float64) bool {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		fatalf("%s: %v", path, err)
	}
	if base.Schema != schema {
		fatalf("%s: schema %q, want %q", path, base.Schema, schema)
	}
	byName := make(map[string]result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	ok := true
	for _, cur := range rep.Benchmarks {
		b, found := byName[cur.Name]
		if !found {
			fmt.Fprintf(w, "procctl-bench: %-22s %12.1f ns/op  (new, no baseline)\n", cur.Name, cur.NsPerOp)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = cur.NsPerOp/b.NsPerOp - 1
		}
		verdict := "ok"
		if cur.NsPerOp > b.NsPerOp*(1+threshold) {
			verdict = fmt.Sprintf("REGRESSION ns/op +%.1f%% > +%.0f%% budget", delta*100, threshold*100)
			ok = false
		}
		// Allocation counts are deterministic for the zero-alloc
		// microbenchmarks (any increase is a real regression), but the
		// multi-second end-to-end runs pick up a few stray runtime-side
		// allocations (goroutine machinery, background GC) — grant those
		// 0.001% absolute slack so the gate cannot flake on noise while
		// still catching any real per-op allocation added to the path.
		if slack := b.AllocsPerOp / 100_000; cur.AllocsPerOp > b.AllocsPerOp+slack {
			verdict = fmt.Sprintf("REGRESSION allocs/op %d > %d (no increase allowed)", cur.AllocsPerOp, b.AllocsPerOp)
			ok = false
		}
		fmt.Fprintf(w, "procctl-bench: %-22s %12.1f ns/op (base %12.1f, %+6.1f%%)  %d allocs (base %d)  %s\n",
			cur.Name, cur.NsPerOp, b.NsPerOp, delta*100, cur.AllocsPerOp, b.AllocsPerOp, verdict)
	}
	if !ok {
		fmt.Fprintf(w, "procctl-bench: FAIL vs %s\n", path)
	} else {
		fmt.Fprintf(w, "procctl-bench: PASS vs %s\n", path)
	}
	return ok
}

// fleetRebalance builds the driven-fleet benchmark: one op is a full
// convergence cycle — a load change that re-targets the fleet, then
// every client learning and acking its new target over the socket, so
// the rebalance epoch settles. The coordinator of the final measured
// run is kept so after() can read both the stage="total" rebalance span
// and the settled-convergence quantiles out of its registry.
func fleetRebalance() bench {
	var last *coordinator.Coordinator
	return bench{
		name: "FleetRebalance",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			coord := coordinator.New(64)
			srv := coordinator.NewServer(coord, ln)
			go srv.Serve()
			const fleet = 8
			clients := make([]*coordinator.Client, fleet)
			names := make([]string, fleet)
			for i := range clients {
				c, err := coordinator.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				names[i] = fmt.Sprintf("app%d", i)
				if _, err := c.Register(names[i], 16); err != nil {
					b.Fatal(err)
				}
				clients[i] = c
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Toggling the external load changes targets, so each
				// iteration opens a fresh epoch with pending members.
				coord.SetExternalLoad(i % 2)
				for j, c := range clients {
					_, epoch, err := c.PollEpoch(names[j], 0)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := c.PollEpoch(names[j], epoch); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			last = coord
			for _, c := range clients {
				c.Close()
			}
			srv.Close()
		},
		after: func(res *result) {
			if last == nil {
				return
			}
			snap := last.Snapshot()
			if m := snap.Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", "total")); m != nil {
				res.P50Us = m.Quantile(500)
				res.P99Us = m.Quantile(990)
				res.P999Us = m.Quantile(999)
			}
			if m := snap.Get(metrics.Name("coordinator_convergence_latency_micros", "outcome", coordinator.ConvergeSettled)); m != nil && m.Count > 0 {
				res.ConvP50Us = m.Quantile(500)
				res.ConvP99Us = m.Quantile(990)
				res.ConvP999Us = m.Quantile(999)
			}
		},
	}
}

// pipeListener is an in-process net.Listener over net.Pipe pairs: the
// 10k-client storm needs a transport with no file descriptors, ports,
// or kernel accept queues, so the benchmark measures the coordinator
// rather than the host's socket limits.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, 128), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial hands the server half of a fresh pipe to the accept loop and
// returns the client half. The 128-deep accept queue is the natural
// backpressure: past it, dialers block like SYN backlog overflow would.
func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	}
}

// fleet10k builds the scaling benchmark: a fleet of `fleet` clients over
// the in-process transport. Setup is a register storm — every client
// dialing and registering at once against an admission-limited,
// epoch-batching daemon, retrying busy sheds — timed into
// storm_seconds. One measured op is then a mass rebalance: an
// external-load swing that re-targets the entire fleet, every client
// learning and acking its new target, and the rebalance epoch settling
// to zero open epochs. after() reads the coordinator's stage="total"
// and settled-convergence histograms for the quantiles, plus the
// shed/batch counters proving the admission and coalescing paths ran.
func fleet10k(fleet int) bench {
	name := "Fleet10k"
	if fleet != 10_000 {
		// A reduced fleet (CI smoke) is a different workload; give it a
		// different name so the baseline gate reports it as uncompared
		// instead of pretending a 10x-smaller run is an improvement.
		name = fmt.Sprintf("Fleet%d", fleet)
	}
	var last *coordinator.Coordinator
	var storm time.Duration
	return bench{
		name: name,
		fn: func(b *testing.B) {
			b.ReportAllocs()
			ln := newPipeListener()
			coord := coordinator.New(2 * fleet)
			stopBatch := coord.StartBatching(5 * time.Millisecond)
			srv := coordinator.NewServerWith(coord, ln, coordinator.ServerConfig{
				Lease:      -1, // pipes have no lease heartbeats; no sweeper
				AdmitLimit: 256,
			})
			go srv.Serve()

			type clientState struct {
				c       *coordinator.Client
				name    string
				applied uint64
			}
			clients := make([]*clientState, fleet)

			// Register storm: every client dials and registers at once,
			// retrying admission sheds with a short backoff (a benchmark
			// is not patient enough for the daemon's 500 ms advisory).
			var wg sync.WaitGroup
			var stormFail atomic.Value
			start := time.Now()
			for i := range clients {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					conn, err := ln.Dial()
					if err != nil {
						stormFail.Store(err)
						return
					}
					cs := &clientState{c: coordinator.NewClient(conn), name: fmt.Sprintf("app%05d", i)}
					for {
						_, err := cs.c.Register(cs.name, 4)
						if err == nil {
							break
						}
						if !errors.Is(err, coordinator.ErrBusy) {
							stormFail.Store(err)
							return
						}
						time.Sleep(time.Duration(100+i%400) * time.Microsecond)
					}
					clients[i] = cs
				}(i)
			}
			wg.Wait()
			storm = time.Since(start)
			if err := stormFail.Load(); err != nil {
				b.Fatalf("register storm: %v", err)
			}

			// One parallel poll round: every client learns its target and
			// epoch, then immediately acks any fresh epoch so the
			// convergence tracker can settle.
			pollRound := func() {
				var pw sync.WaitGroup
				work := make(chan *clientState, 256)
				for w := 0; w < 256; w++ {
					pw.Add(1)
					go func() {
						defer pw.Done()
						for cs := range work {
							_, epoch, err := cs.c.PollEpoch(cs.name, cs.applied)
							if err != nil {
								stormFail.Store(err)
								continue
							}
							if epoch > cs.applied {
								cs.applied = epoch
								if _, _, err := cs.c.PollEpoch(cs.name, cs.applied); err != nil {
									stormFail.Store(err)
								}
							}
						}
					}()
				}
				for _, cs := range clients {
					work <- cs
				}
				close(work)
				pw.Wait()
			}
			settle := func(stage string) {
				deadline := time.Now().Add(2 * time.Minute)
				for coord.OpenEpochs() > 0 {
					if time.Now().After(deadline) {
						b.Fatalf("%s: %d epochs still open", stage, coord.OpenEpochs())
					}
					pollRound()
					time.Sleep(time.Millisecond)
				}
				if err := stormFail.Load(); err != nil {
					b.Fatalf("%s: %v", stage, err)
				}
			}
			settle("post-storm")

			// Mass rebalance: swinging the external load between 0 and
			// fleet halves the per-member share, so (almost) every member
			// re-targets — a fleet-wide epoch each iteration.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prev := coord.Rebalances()
				coord.SetExternalLoad((i%2 + 1) * fleet / 2)
				for coord.Rebalances() == prev {
					time.Sleep(100 * time.Microsecond) // batch window
				}
				pollRound()
				settle("mass rebalance")
			}
			b.StopTimer()
			last = coord

			// Teardown order matters: closing the server unregisters 10k
			// members; with batching still on those coalesce into one
			// final flush instead of 10k O(fleet) inline rebalances.
			for _, cs := range clients {
				if cs != nil {
					cs.c.Close()
				}
			}
			srv.Close()
			stopBatch()
		},
		after: func(res *result) {
			res.StormSeconds = storm.Seconds()
			if last == nil {
				return
			}
			snap := last.Snapshot()
			if m := snap.Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", "total")); m != nil {
				res.P50Us = m.Quantile(500)
				res.P99Us = m.Quantile(990)
				res.P999Us = m.Quantile(999)
			}
			if m := snap.Get(metrics.Name("coordinator_convergence_latency_micros", "outcome", coordinator.ConvergeSettled)); m != nil && m.Count > 0 {
				res.ConvP50Us = m.Quantile(500)
				res.ConvP99Us = m.Quantile(990)
				res.ConvP999Us = m.Quantile(999)
			}
			if m := snap.Get(metrics.Name("coordinator_admission_shed_total", "reason", "register")); m != nil {
				res.ShedRegisters = m.Value
			}
			if m := snap.Get("coordinator_batch_flushes_total"); m != nil {
				res.BatchFlushes = m.Value
			}
			if m := snap.Get("coordinator_batch_coalesced_total"); m != nil {
				res.BatchCoalesced = m.Value
			}
		},
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "procctl-bench: "+format+"\n", args...)
	os.Exit(2)
}

// curated returns the regression set. The microbenchmark bodies mirror
// the root bench_test.go definitions of the same names — kept in both
// places because a main package cannot import _test.go files; the two
// sets are pinned to each other by name in EXPERIMENTS.md.
func curated(fleet int) []bench {
	return []bench{
		{name: "EngineEvents", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine(1)
			var tick func()
			n := 0
			tick = func() {
				n++
				if n < b.N {
					eng.After(1, tick)
				}
			}
			eng.After(1, tick)
			b.ResetTimer()
			eng.RunUntilIdle()
		}},
		{name: "EngineScheduleCancel", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine(1)
			fn := func() {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Cancel(eng.After(1000, fn))
			}
		}},
		{name: "EngineChurn", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine(1)
			rng := sim.NewRNG(7)
			fn := func() {}
			const population = 4096
			ids := make([]sim.EventID, population)
			for i := range ids {
				ids[i] = eng.Schedule(sim.Time(1+rng.Intn(1_000_000)), fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := rng.Intn(population)
				eng.Cancel(ids[j])
				ids[j] = eng.Schedule(sim.Time(1+rng.Intn(1_000_000)), fn)
			}
		}},
		{name: "KernelContextSwitch", fn: func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine(1)
			mac := machine.New(machine.Config{NumCPU: 1})
			k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: sim.Millisecond, QuantumJitter: -1})
			for i := 0; i < 2; i++ {
				k.Spawn("p", 1, 0, func(env *kernel.Env) {
					for {
						env.Compute(10 * sim.Millisecond)
					}
				})
			}
			b.ResetTimer()
			eng.Run(sim.Time(sim.Duration(b.N) * sim.Millisecond))
			b.StopTimer()
			k.Shutdown()
		}},
		// One blocking request and nothing else: a Compute completes, the
		// engine switches to the body for its next request and back, and
		// the next completion is scheduled. One process, no preemption.
		{name: "KernelRendezvous", fn: func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine(1)
			mac := machine.New(machine.Config{NumCPU: 1})
			k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 3600 * sim.Second, QuantumJitter: -1})
			k.Spawn("p", 1, 0, func(env *kernel.Env) {
				for {
					env.Compute(sim.Microsecond)
				}
			})
			b.ResetTimer()
			eng.Run(sim.Time(sim.Duration(b.N) * sim.Microsecond))
			b.StopTimer()
			k.Shutdown()
		}},
		{name: "SimulatedSpinlock", fn: func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine(1)
			mac := machine.New(machine.Config{NumCPU: 4})
			k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 100 * sim.Millisecond, QuantumJitter: -1})
			l := kernel.NewSpinLock("bench")
			for i := 0; i < 4; i++ {
				k.Spawn("p", 1, 0, func(env *kernel.Env) {
					for {
						env.Acquire(l)
						env.Compute(10 * sim.Microsecond)
						env.Release(l)
						env.Compute(10 * sim.Microsecond)
					}
				})
			}
			b.ResetTimer()
			target := int64(b.N)
			for l.Acquires < target {
				eng.Run(eng.Now().Add(10 * sim.Millisecond))
			}
			b.StopTimer()
			k.Shutdown()
		}},
		// HistogramObserve is one observation into a log-bucketed latency
		// histogram (the binary-search path): the per-event cost of the
		// daemon's span instrumentation. Must stay zero-alloc.
		{name: "HistogramObserve", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			reg := metrics.NewRegistry()
			h := reg.Histogram(metrics.Name("bench_latency_micros", "stage", "total"),
				"benchmark histogram", metrics.LatencyBuckets)
			rng := sim.NewRNG(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Observe(int64(rng.Intn(10_000_000)))
			}
		}},
		// RecorderAppend is one flight-recorder event: the per-event cost
		// of the always-on ring buffer. Must stay zero-alloc.
		{name: "RecorderAppend", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			rec := flight.New(flight.DefaultSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Append(flight.Event{At: int64(i), Kind: flight.KindTarget, App: "bench", A: 8, B: 4})
			}
		}},
		// EpochStamp is one epoch-stamped target delivery into an
		// in-process member — the pool-side half of what a DriveWith
		// poll round applies. Alternating targets so every push is a
		// genuine change: epoch recorded, settle tracking re-armed,
		// workers re-converging. Must stay zero-alloc on the caller.
		{name: "EpochStamp", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			p := pool.New(pool.Config{Name: "bench", Workers: 2, Flight: flight.New(flight.DefaultSize)})
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.SetTargetEpoch(1+i%2, uint64(i+1))
			}
		}},
		// ConvergeTrack is one open→ack→close convergence cycle on the
		// coordinator's epoch tracker. The free list and closed-report
		// ring make the steady-state cycle allocation-free; this is the
		// gate that keeps it so.
		{name: "ConvergeTrack", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			cb := coordinator.NewConvergeBench()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cb.Cycle(uint64(i+1), int64(i))
			}
		}},
		// PollShard is the per-poll shard fast path: the counter bump,
		// target read, and convergence ack a steady-state poll costs the
		// coordinator, with the wire stripped away. Its baseline is
		// 0 allocs/op and the comparison tolerates no increase, so this
		// is the shard fast path's zero-alloc gate.
		{name: "PollShard", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			pb := coordinator.NewPollBench(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pb.Poll(i&63, int64(i))
			}
		}},
		// WirePoll is the rung above PollShard: the line codec's share of a
		// served poll, one request decoded and its reply encoded. 0 allocs
		// in the baseline, no increase tolerated.
		{name: "WirePoll", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			pb := coordinator.NewPollBench(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pb.WirePoll(i & 63)
			}
		}},
		// FleetRebalance is a driven fleet: eight applications registered
		// over the socket, then b.N convergence cycles — a load change
		// re-targeting the fleet, every client acking over the wire.
		// Beyond ns/op, the coordinator's stage="total" span histogram
		// and settled-convergence histogram supply p50/p99/p999.
		fleetRebalance(),
		// Fleet10k is the scaling exit proof: a 10k-client register storm
		// against the admission limiter, then mass rebalances with the
		// whole fleet learning, acking, and settling each epoch-batched
		// recompute. One op is one fleet-wide convergence cycle.
		fleet10k(fleet),
		// TraceRecord is one recorded virtual second of the Fig4-style
		// mix (matmul + fft + background, control on): the cost of the
		// recorder's JSONL encoding on top of the simulation.
		{name: "TraceRecord", extra: wall, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := experiments.Options{Seed: 1, Seeds: 1}
				s := experiments.NewSim(o, true)
				rec := trace.NewRecorder(s.K, io.Discard, trace.Meta{Seed: 1, Control: true})
				cfg := threads.Config{Procs: 12}
				if s.Server != nil {
					cfg.Controller = s.Server
				}
				threads.Launch(s.K, kernel.AppID(1), apps.PaperMatmul(), cfg)
				threads.Launch(s.K, kernel.AppID(2), apps.PaperFFT(), cfg)
				apps.Background(s.K, 2, 20*sim.Millisecond, 30*sim.Millisecond)
				s.Eng.Run(sim.Time(sim.Second))
				s.K.Finalize()
				if err := rec.Close(); err != nil {
					b.Fatal(err)
				}
				s.K.Shutdown()
			}
		}},
		// Fig4 is the end-to-end evaluation run: the staggered
		// three-application mix, with and without process control.
		{name: "Fig4", extra: wall, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.Fig4(experiments.Options{Seed: 1, Seeds: 1}, nil)
			}
		}},
		// JournalAppend measures the daemon's durability hot path; its
		// baseline allocs/op is 0 and the comparison tolerates no
		// increase, so this is the append path's zero-alloc gate.
		{name: "JournalAppend", extra: events, fn: func(b *testing.B) {
			b.ReportAllocs()
			dir, err := os.MkdirTemp("", "procctl-bench-journal")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			w, err := journal.Open(dir, 1, journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			rec := journal.Record{At: 1, Kind: journal.KindTarget, App: "bench-app", A: 7, B: 3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Recovery10kRecords measures boot-time fsck+replay over a 10k
		// record journal — the restart-latency budget.
		{name: "Recovery10kRecords", fn: func(b *testing.B) {
			b.ReportAllocs()
			dir, err := os.MkdirTemp("", "procctl-bench-recover")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			w, err := journal.Open(dir, 1, journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 10_000; i++ {
				rec := journal.Record{At: int64(i), Kind: journal.KindTarget,
					App: fmt.Sprintf("app%d", i%32), A: int64(i % 16), B: int64((i + 1) % 16)}
				if i%50 == 0 {
					rec.Kind = journal.KindRegister
				}
				if _, err := w.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := journal.Recover(dir)
				if err != nil {
					b.Fatal(err)
				}
				if res.Replayed != 10_000 {
					b.Fatalf("replayed %d records, want 10000", res.Replayed)
				}
			}
		}},
	}
}
