package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"procctl/internal/core"
	"procctl/internal/journal"
	"procctl/internal/metrics"
	"procctl/internal/runtime/coordinator"
)

// attachJournal opens a write-ahead journal in dir with the default
// fsync batching and tees the coordinator's durable events into it.
func (f *fleet) attachJournal(dir string) error {
	w, err := journal.Open(dir, 1, journal.Options{
		Metrics:   f.coord.Metrics(),
		NowMicros: func() int64 { return time.Now().UnixMicro() },
	})
	if err != nil {
		return err
	}
	f.coord.SetJournal(w)
	return nil
}

// cycleTimes are the phases of one churn cycle.
type cycleTimes struct {
	settle, decide, churn, learn, ack time.Duration
	sweeps                            int
}

// cycle is one fleet-wide re-target: flip the external load (every
// member's share changes), unregister and re-register the victims, then
// sweep learn-then-ack until the daemon reports no open epoch and every
// re-registered victim has been covered by a rebalance (fleet.settle).
func (f *fleet) cycle(e *env, parent int64, n int, victims []int) (cycleTimes, error) {
	var ct cycleTimes
	m := len(f.members)
	load := m / 2
	if n%2 == 1 {
		load = m
	}
	before := f.maxEpoch()
	sp := e.tr.begin(parent, "cycle", fmt.Sprintf("cycle%d", n))
	defer e.tr.end(sp)
	start := time.Now()

	prev := f.coord.Rebalances()
	f.coord.SetExternalLoad(load)

	b := e.tr.begin(sp, "coordinator.churn", "")
	t := time.Now()
	if _, _, err := f.reRegister(victims); err != nil {
		return ct, err
	}
	ct.churn = time.Since(t)
	e.tr.end(b)

	// The decision lands one batch window after the first event.
	b = e.tr.begin(sp, "coordinator.decide", "")
	err := f.awaitRebalance(prev, start)
	ct.decide = time.Since(start)
	e.tr.end(b)
	if err != nil {
		return ct, fmt.Errorf("cycle %d: %w", n, err)
	}

	// Epoch 1 or later from everyone: a re-registered victim reports
	// epoch 0 until a flush covers it. The last victim registered after
	// the load change and a flush pushes to it last, so by the time it
	// has an epoch, that flush has decided under the new load and
	// reached every member, and stays open until all it moved have acked.
	st, err := f.settle(e.tr, sp, 1)
	if err != nil {
		return ct, fmt.Errorf("cycle %d: %w", n, err)
	}
	ct.learn, ct.ack, ct.sweeps = st.learn, st.ack, st.sweeps
	ct.settle = time.Since(start)

	if err := f.checkSettled(); err != nil {
		return ct, fmt.Errorf("cycle %d: %w", n, err)
	}
	if after := f.maxEpoch(); after <= before {
		return ct, fmt.Errorf("cycle %d: fleet epoch did not advance (%d -> %d)", n, before, after)
	}
	return ct, nil
}

// runFleetChurn is the write path: every cycle re-targets the whole
// fleet and churns 2 % of its membership with batching and a journal
// attached, so gather+allocate, the notify fan-out, the convergence
// tracker, journal append/fsync and shard insert/remove do the work
// that fleet_poll bypasses. Closing the run, the journal it wrote is
// recovered into a fresh coordinator and compared with the live
// registry.
func runFleetChurn(e *env) *report {
	rep := newReport()
	f, dir := setupFleet(e, rep, func(dir string) fleetOptions {
		return fleetOptions{batched: true, journal: filepath.Join(dir, "wal")}
	})
	if f == nil {
		return rep
	}
	defer f.close()
	rng := rand.New(rand.NewSource(int64(e.seed) + 1))
	m := len(f.members)

	cycles := 0
	runCycles := func(parent int64, keep *[]cycleTimes) error {
		for i := 0; i < e.sz.cyclesPerRep; i++ {
			ct, err := f.cycle(e, parent, cycles, churnVictims(rng, m, e.sz.churnPct))
			if err != nil {
				return err
			}
			cycles++
			if keep != nil {
				*keep = append(*keep, ct)
			}
		}
		return nil
	}
	if err := runCycles(0, nil); err != nil { // warm-up
		rep.fail("warm-up: %v", err)
		return rep
	}

	appends0, _ := f.coord.Metrics().Value("journal_appends_total")
	timedFrom := cycles
	var all []cycleTimes
	meas := e.measure(rep, func(i int) (repSample, error) {
		sp := e.tr.begin(0, "rep", fmt.Sprintf("rep%d", i))
		from := len(all)
		m0 := mallocs()
		start := time.Now()
		err := runCycles(sp, &all)
		wall := time.Since(start)
		m1 := mallocs()
		e.tr.end(sp)
		if err != nil {
			return repSample{}, err
		}
		rep.ok(e.sz.cyclesPerRep * m)
		var settle latencies
		for _, ct := range all[from:] {
			settle.add(int64(ct.settle))
		}
		return repSample{wall: wall, latency: settle.sorted().at(0.50), allocs: float64(m1-m0) / float64(e.sz.cyclesPerRep)}, nil
	})
	if rep.failed > 0 {
		return rep
	}
	appends1, _ := f.coord.Metrics().Value("journal_appends_total")

	var settle, decide, learn, ack latencies
	sweeps := 0
	for _, ct := range all {
		settle.add(int64(ct.settle))
		decide.add(int64(ct.decide))
		learn.add(int64(ct.learn))
		ack.add(int64(ct.ack))
		sweeps += ct.sweeps
	}
	settle.sorted()
	fmt.Fprintf(e.log, "  %d members, %d timed cycles, %.2f learn sweeps per cycle\n",
		m, len(all), float64(sweeps)/float64(len(all)))
	// Throughput counts members settled on a new target (a repetition
	// settles the whole fleet once per cycle); latency and allocations
	// are per cycle, the unit the coordinator's code works in.
	meas.endToEnd(e, rep, float64(m*e.sz.cyclesPerRep), "members", 1)

	// Daemon-side numbers have to be read before the daemon goes away.
	snap := f.coord.Snapshot()
	want := f.srv.JournalState(time.Now().UnixMicro())
	f.close()

	recovers := 1
	if e.tr != nil {
		recovers = e.sz.recoverReps
	}
	var recoverS []float64
	var replayed int
	for i := 0; i < recovers; i++ {
		d, n, err := recoverInto(filepath.Join(dir, "wal"), dir, f.capacity, want, i)
		if err != nil {
			rep.fail("recovery: %v", err)
			return rep
		}
		rep.ok(len(want.Members))
		recoverS = append(recoverS, d.Seconds())
		replayed = n
	}

	if e.tr == nil {
		return rep
	}
	rep.set("coordinator.settle_ms_p50", settle.at(0.50)/1e6)
	rep.set("coordinator.settle_ms_p90", settle.at(0.90)/1e6)

	stage := func(name string) float64 {
		if h := snap.Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", name)); h != nil {
			return float64(h.Quantile(500))
		}
		return 0
	}
	value := func(name string) float64 {
		if v := snap.Get(name); v != nil {
			return float64(v.Value)
		}
		return 0
	}
	rep.set("coordinator.stage_snapshot_us_p50", stage(coordinator.StageSnapshot))
	rep.set("coordinator.stage_recompute_us_p50", stage(coordinator.StageRecompute))
	rep.set("coordinator.stage_notify_us_p50", stage(coordinator.StageNotify))
	rep.set("coordinator.batch_flushes", value("coordinator_batch_flushes_total"))
	rep.set("coordinator.batch_coalesced", value("coordinator_batch_coalesced_total"))
	rep.set("coordinator.metrics_series", float64(len(snap.Metrics)))
	rep.set("coordinator.decide_ms_p50", decide.sorted().at(0.5)/1e6)
	rep.set("coordinator.learn_ms_p50", learn.sorted().at(0.5)/1e6)
	rep.set("coordinator.ack_ms_p50", ack.sorted().at(0.5)/1e6)
	if h := snap.Get("journal_fsync_micros"); h != nil {
		rep.set("journal.sync_ms_p50", float64(h.Quantile(500))/1e3)
	}
	if n := value("journal_appends_total"); n > 0 {
		rep.set("journal.bytes_per_record", value("journal_bytes_total")/n)
	}
	rep.set("journal.records_per_cycle", float64(appends1-appends0)/float64(cycles-timedFrom))
	rep.set("journal.recover_s", median(recoverS))
	if replayed > 0 {
		rep.set("journal.recover_ms_per_100k", median(recoverS)*1e3*1e5/float64(replayed))
	}
	decisionProbes(e, dir, rep)

	worst, n := closure(e.tr.snapshot(), "cycle")
	if n > 0 && worst <= 0.10 {
		rep.ok(n)
	} else {
		rep.fail("span self times are %.1f%% off their cycle span (%d spans)", 100*worst, n)
	}
	// Tracing overhead: a traced cycle against an untraced one would
	// need a second fleet; the cycle records ~8 spans against ~8000
	// polls, so the figure is reported from span bookkeeping alone.
	rep.set("harness.trace_overhead_pct", spanCostPct(e.tr, all))
	return rep
}

// spanCostPct estimates what share of the traced cycles' wall the span
// bookkeeping itself took: spans recorded × the measured cost of one
// begin/end pair.
func spanCostPct(tr *tracer, all []cycleTimes) float64 {
	var wall time.Duration
	for _, ct := range all {
		wall += ct.settle
	}
	if wall == 0 {
		return 0
	}
	probe := newTracer()
	const n = 100_000
	start := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin(0, "probe", ""))
	}
	per := time.Since(start) / n
	return 100 * float64(per) * float64(len(tr.snapshot())) / float64(wall)
}

// recoverInto replays the journal in jdir and re-seats it in a fresh
// coordinator, timing journal.Recover + Server.Restore, and checks the
// recovered members and targets against the live registry at close.
func recoverInto(jdir, dir string, capacity int, want journal.State, n int) (time.Duration, int, error) {
	ln, err := net.Listen("unix", filepath.Join(dir, fmt.Sprintf("r%d.sock", n)))
	if err != nil {
		return 0, 0, err
	}
	coord := coordinator.New(capacity)
	srv := coordinator.NewServer(coord, ln)
	defer srv.Close()

	runtime.GC()
	start := time.Now()
	res, err := journal.Recover(jdir)
	if err != nil {
		return 0, 0, err
	}
	restored := srv.Restore(res.State, time.Now())
	d := time.Since(start)

	if res.Dirty() {
		return 0, 0, fmt.Errorf("journal needed repair after a clean close: %v", res.Notes)
	}
	strip := func(ms []journal.Member) []journal.Member {
		out := append([]journal.Member(nil), ms...)
		for i := range out {
			out[i].LastSeen = 0
		}
		return out
	}
	if !reflect.DeepEqual(strip(res.State.Members), strip(want.Members)) {
		return 0, 0, fmt.Errorf("recovered registry (%d members) differs from the live one (%d members)",
			len(res.State.Members), len(want.Members))
	}
	if restored != len(want.Members) || len(coord.Members()) != restored {
		return 0, 0, fmt.Errorf("restored %d members into a coordinator holding %d, want %d",
			restored, len(coord.Members()), len(want.Members))
	}
	return d, res.Replayed, nil
}

// stubMember is an in-process member that accepts targets and does
// nothing with them.
type stubMember struct {
	name   string
	procs  int
	target int
}

func (s *stubMember) Name() string    { return s.name }
func (s *stubMember) Workers() int    { return s.procs }
func (s *stubMember) SetTarget(n int) { s.target = n }

// decisionProbes time the decision layers alone, at three fleet sizes,
// so a superlinear step between them is visible.
func decisionProbes(e *env, dir string, rep *report) {
	rng := rand.New(rand.NewSource(int64(e.seed) + 2))
	for _, n := range e.sz.stubFleets {
		demands := make([]core.Demand, n)
		coord := coordinator.New(4 * n)
		// One flush for the whole registration instead of n rebalances.
		stop := coord.StartBatching(time.Hour)
		for i := range demands {
			demands[i] = core.Demand{Max: 1 + rng.Intn(16), Weight: 1 + rng.Intn(4)}
			coord.RegisterWeighted(&stubMember{name: fmt.Sprintf("stub-%05d", i), procs: demands[i].Max}, demands[i].Weight)
		}
		stop()

		var rebal, alloc []float64
		for i := 0; i < 9; i++ {
			t := time.Now()
			coord.Rebalance()
			rebal = append(rebal, us(time.Since(t)))
			t = time.Now()
			out := core.Allocate(3*n, demands)
			alloc = append(alloc, us(time.Since(t)))
			if core.Sum(out) > 3*n {
				rep.fail("core.Allocate over-allocated at n=%d", n)
			}
		}
		rep.ok(1)
		rep.set(fmt.Sprintf("coordinator.rebalance_us_m%d", n), median(rebal))
		if n >= 2000 {
			rep.set(fmt.Sprintf("core.allocate_us_m%d", n), median(alloc))
		}
	}

	// journal.Append alone, fsync batching as in the workload.
	jdir := filepath.Join(dir, "probe-wal")
	w, err := journal.Open(jdir, 1, journal.Options{})
	if err != nil {
		rep.fail("journal probe: %v", err)
		return
	}
	rec := journal.Record{At: 1, Kind: journal.KindTarget, App: "app-00000-abcdef", A: 5, B: 4, Epoch: 7}
	start := time.Now()
	for i := 0; i < e.sz.probeIters; i++ {
		if _, err := w.Append(rec); err != nil {
			rep.fail("journal probe: %v", err)
			break
		}
	}
	d := time.Since(start)
	if err := w.Close(); err != nil {
		rep.fail("journal probe: %v", err)
	}
	rep.ok(1)
	rep.set("journal.append_ns", float64(d)/float64(e.sz.probeIters))
	_ = os.RemoveAll(jdir)
}
