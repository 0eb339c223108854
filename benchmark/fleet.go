package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"procctl/internal/runtime/coordinator"
)

// The two control-plane workloads share one fleet: an in-process
// coordinator.Server on a real unix socket, C = min(nproc, 4) driver
// goroutines with one connection each, and M members multiplexed over
// those connections (the protocol lets one connection own many
// applications). Registry size is realistic while threads and
// connections stay at or below the processor count, so the generator
// does not drown the system it shares a process with.

const (
	batchWindow    = 5 * time.Millisecond
	settleDeadline = 30 * time.Second

	// echoTrips is how many round trips one echo round makes per pair
	// (≈ 15 ms); nominalEcho is one round trip on the reference host in
	// a calm stretch, two pairs at once.
	echoTrips   = 2000
	nominalEcho = 7500 * time.Nanosecond
)

// fleetMember is the client-side view of one registered application.
type fleetMember struct {
	name          string
	procs, weight int
	conn          int
	applied       uint64 // highest epoch acknowledged to the daemon
	target        int    // last polled target
	epoch         uint64 // last polled epoch (0 right after a re-register)
}

type fleet struct {
	coord    *coordinator.Coordinator
	srv      *coordinator.Server
	served   chan struct{} // closed when Serve has returned
	clients  []*coordinator.Client
	members  []fleetMember
	owned    [][]int // per connection, member indices in seeded-shuffled poll order
	capacity int

	stopBatch func()
	closed    bool
}

func driverCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// genMembers derives the fleet's membership from the seed.
func genMembers(seed uint64, m, conns int) ([]fleetMember, [][]int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	members := make([]fleetMember, m)
	owned := make([][]int, conns)
	for i := range members {
		members[i] = fleetMember{
			name:   fmt.Sprintf("app-%05d-%06x", i, rng.Intn(1<<24)),
			procs:  1 + rng.Intn(16),
			weight: 1 + rng.Intn(4),
			conn:   i % conns,
		}
		owned[i%conns] = append(owned[i%conns], i)
	}
	for _, idx := range owned {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	}
	return members, owned
}

// fleetOptions select the daemon configuration a workload measures.
type fleetOptions struct {
	batched bool   // epoch-batched rebalancing (procctld -rebalance-batch)
	journal string // journal directory; empty = no journal
}

// startFleet listens, dials, registers every member and settles the
// first epochs. dir must be a short path: unix socket names are limited
// to 108 bytes.
func startFleet(e *env, dir string, opts fleetOptions) (*fleet, error) {
	conns := driverCount()
	members, owned := genMembers(e.seed, e.sz.members, conns)
	f := &fleet{
		members:   members,
		owned:     owned,
		capacity:  4 * e.sz.members,
		served:    make(chan struct{}),
		stopBatch: func() {},
	}
	sock := filepath.Join(dir, "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f.coord = coordinator.New(f.capacity)
	if opts.batched {
		f.stopBatch = f.coord.StartBatching(batchWindow)
	}
	f.srv = coordinator.NewServer(f.coord, ln)
	go func() {
		defer close(f.served)
		_ = f.srv.Serve() // always net.ErrClosed after Close
	}()
	if opts.journal != "" {
		if err := f.attachJournal(opts.journal); err != nil {
			f.close()
			return nil, err
		}
	}
	for i := 0; i < conns; i++ {
		c, err := coordinator.Dial("unix", sock)
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}

	// Register storm: every connection registers its members back to
	// back, all connections at once.
	errs := f.sweep(func(conn int, idx []int) error {
		for _, i := range idx {
			m := &f.members[i]
			if _, err := f.clients[conn].RegisterWeighted(m.name, m.procs, m.weight); err != nil {
				return fmt.Errorf("register %s: %w", m.name, err)
			}
		}
		return nil
	})
	if errs != nil {
		f.close()
		return nil, errs
	}
	// Without batching every registration rebalances inline, and two
	// rebalances running at once — one per connection here — may
	// interleave their pushes, so that a member is left holding the older
	// target (Coordinator.notify documents the transient: "the next
	// rebalance converges it"). This is that next rebalance, issued when
	// nothing else is in flight; the fleet settles on its epoch.
	prev := f.coord.Rebalances()
	f.coord.Rebalance()
	err = f.awaitRebalance(prev, time.Now())
	if err == nil {
		_, err = f.settle(nil, 0, uint64(prev)+1)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// awaitRebalance waits for the coordinator to start a rebalance numbered
// above prev. Without batching the event that asks for one runs it
// inline; with batching it starts one window later.
func (f *fleet) awaitRebalance(prev int64, start time.Time) error {
	for f.coord.Rebalances() == prev {
		if time.Since(start) > settleDeadline {
			return fmt.Errorf("no rebalance %v after asking for one", settleDeadline)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// close shuts the daemon down before the clients, so the members are
// dropped as "daemon exiting" (no departure rebalances, journal registry
// intact), then stops the batcher and closes the journal.
func (f *fleet) close() {
	if f.closed {
		return
	}
	f.closed = true
	_ = f.srv.Close()
	<-f.served
	for _, c := range f.clients {
		_ = c.Close()
	}
	f.stopBatch()
	if w := f.coord.Journal(); w != nil {
		_ = w.Close()
	}
}

// sweep runs fn once per connection, all connections in parallel, and
// returns the first error.
func (f *fleet) sweep(fn func(conn int, idx []int) error) error {
	errs := make([]error, len(f.owned))
	var wg sync.WaitGroup
	for c := range f.owned {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c, f.owned[c])
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// poll is one protocol poll for member i, with the reply checks every
// workload applies: ok, 1 <= target <= procs, epochs never go back.
func (f *fleet) poll(i int) error {
	m := &f.members[i]
	target, epoch, err := f.clients[m.conn].PollEpoch(m.name, m.applied)
	if err != nil {
		return fmt.Errorf("poll %s: %w", m.name, err)
	}
	if target < 1 || target > m.procs {
		return fmt.Errorf("poll %s: target %d outside [1,%d]", m.name, target, m.procs)
	}
	if epoch < m.epoch {
		return fmt.Errorf("poll %s: epoch went back from %d to %d", m.name, m.epoch, epoch)
	}
	m.target, m.epoch = target, epoch
	return nil
}

// learn polls every member once: each learns its current target and the
// epoch that computed it.
func (f *fleet) learn() error {
	return f.sweep(func(_ int, idx []int) error {
		for _, i := range idx {
			if err := f.poll(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// ack polls again for every member that learned a newer epoch than it
// has acknowledged, carrying the acknowledgement — the second half of
// what coordinator.Driver's loop does after applying a fresh target.
func (f *fleet) ack() error {
	return f.sweep(func(_ int, idx []int) error {
		for _, i := range idx {
			m := &f.members[i]
			if m.epoch <= m.applied {
				continue
			}
			m.applied = m.epoch
			if err := f.poll(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// sweepTimes is what the settle loop spent in each kind of sweep.
type sweepTimes struct {
	learn, ack time.Duration
	sweeps     int
}

// settle sweeps learn-then-ack until the daemon has no open epoch and
// every member has been told a target of epoch through or later,
// recording each sweep as a span under parent. through is the first
// epoch decided after the events being settled. The second condition is
// what makes the first one mean anything: an epoch is opened a moment
// after the rebalance counter moves, and under batching a fresh
// registration reports epoch 0 and its own process count as target
// until the flush that covers it lands, with no epoch open on its behalf
// until then. Every rebalance pushes to every member, so one sweep after
// the fan-out satisfies it.
func (f *fleet) settle(tr *tracer, parent int64, through uint64) (sweepTimes, error) {
	var st sweepTimes
	deadline := time.Now().Add(settleDeadline)
	for {
		sp := tr.begin(parent, "coordinator.learn", "")
		t := time.Now()
		err := f.learn()
		st.learn += time.Since(t)
		tr.end(sp)
		if err != nil {
			return st, err
		}
		sp = tr.begin(parent, "coordinator.ack", "")
		t = time.Now()
		err = f.ack()
		st.ack += time.Since(t)
		tr.end(sp)
		if err != nil {
			return st, err
		}
		st.sweeps++
		if f.coord.OpenEpochs() == 0 && f.minEpoch() >= through {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("fleet did not settle in %v: %d epochs still open", settleDeadline, f.coord.OpenEpochs())
		}
	}
}

// checkSettled verifies the allocation invariants on what the members
// were told: every target in range (poll checked that), the targets sum
// to no more than the capacity left after external load, and nothing
// is open.
func (f *fleet) checkSettled() error {
	sum := 0
	for i := range f.members {
		sum += f.members[i].target
	}
	avail := f.capacity - f.coord.ExternalLoad()
	if avail < len(f.members) {
		avail = len(f.members) // the one-process starvation floor
	}
	if sum > avail {
		return fmt.Errorf("targets sum to %d, above the %d processors available", sum, avail)
	}
	if n := f.coord.OpenEpochs(); n != 0 {
		return fmt.Errorf("%d epochs open after settle", n)
	}
	return nil
}

func (f *fleet) maxEpoch() uint64 {
	var max uint64
	for i := range f.members {
		if f.members[i].epoch > max {
			max = f.members[i].epoch
		}
	}
	return max
}

// minEpoch is the oldest epoch any member's last poll carried; 0 while a
// fresh registration is waiting for its first.
func (f *fleet) minEpoch() uint64 {
	min := f.members[0].epoch
	for i := range f.members {
		if f.members[i].epoch < min {
			min = f.members[i].epoch
		}
	}
	return min
}

// setupFleet runs startFleet several times for a steady set-up time and
// returns the last fleet for measuring. Each gets its own directory;
// all are under scratch and vanish with it.
func setupFleet(e *env, rep *report, opts func(dir string) fleetOptions) (*fleet, string) {
	var f *fleet
	var dir string
	var setups []float64
	for i := 0; i < e.sz.setupReps; i++ {
		if f != nil {
			f.close()
		}
		var err error
		dir, err = os.MkdirTemp(e.scratch, "f")
		if err != nil {
			rep.fail("scratch dir: %v", err)
			return nil, ""
		}
		took, err := timedSetup(func() (err error) {
			f, err = startFleet(e, dir, opts(dir))
			return err
		})
		if err != nil {
			rep.fail("fleet set-up: %v", err)
			return nil, ""
		}
		setups = append(setups, took)
		if err := f.checkSettled(); err != nil {
			rep.fail("after set-up: %v", err)
		} else {
			rep.ok(len(f.members))
		}
	}
	if e.tr == nil {
		rep.set("setup_s", median(setups))
	}
	return f, dir
}

// ---- fleet_poll ----

// runFleetPoll is the read path under a closed loop: targets are steady
// and each driver polls back to back over its members, so the wire
// codec, the socket round trip, Server dispatch and the shard lookup do
// all the work while allocator, notify, journal and convergence tracker
// idle. Closed loop because each member waits for its reply.
func runFleetPoll(e *env) *report {
	rep := newReport()
	f, dir := setupFleet(e, rep, func(string) fleetOptions { return fleetOptions{} })
	if f == nil {
		return rep
	}
	defer f.close()
	conns := len(f.clients)
	per := e.sz.pollsPerRep / conns

	// round is one closed-loop repetition: every driver polls per times
	// over its members, back to back. A traced run also times each poll.
	pools := make([]latencies, conns)
	round := func(parent int64) (latencies, time.Duration, error) {
		for c := range pools {
			pools[c] = slices.Grow(pools[c][:0], per)
		}
		start := time.Now()
		err := f.sweep(func(c int, idx []int) error {
			if e.tr == nil {
				for k := 0; k < per; k++ {
					if err := f.poll(idx[k%len(idx)]); err != nil {
						return err
					}
				}
				return nil
			}
			drv := e.tr.begin(parent, "driver", fmt.Sprintf("conn%d", c))
			defer e.tr.end(drv)
			for k := 0; k < per; k++ {
				// One poll in 256 gets a span: enough to see the
				// round trip in the trace, too few to slow the loop.
				var sp int64
				if k&255 == 0 {
					sp = e.tr.begin(drv, "coordinator.poll", "")
				}
				t := time.Now()
				if err := f.poll(idx[k%len(idx)]); err != nil {
					return err
				}
				pools[c].add(int64(time.Since(t)))
				e.tr.end(sp)
			}
			return nil
		})
		wall := time.Since(start)
		var all latencies
		for _, p := range pools {
			all = append(all, p...)
		}
		return all, wall, err
	}
	polls := per * conns

	if _, _, err := round(0); err != nil { // warm-up
		rep.fail("warm-up: %v", err)
		return rep
	}
	echo, err := newEchoer(dir, conns)
	if err != nil {
		rep.fail("%v", err)
		return rep
	}
	defer echo.close()
	var echoes []float64 // seconds per echo round, before and after each repetition
	var pooled latencies // every timed poll of a traced run, for the far tail
	m := e.measure(rep, func(i int) (repSample, error) {
		before, err := echo.round(echoTrips)
		if err != nil {
			return repSample{}, err
		}
		sp := e.tr.begin(0, "rep", fmt.Sprintf("rep%d", i))
		m0 := mallocs()
		lat, wall, err := round(sp)
		m1 := mallocs()
		e.tr.end(sp)
		if err != nil {
			return repSample{}, err
		}
		after, err := echo.round(echoTrips)
		if err != nil {
			return repSample{}, err
		}
		echoes = append(echoes, before.Seconds(), after.Seconds())
		rep.ok(polls)
		pooled = append(pooled, lat...)
		// Latency is the mean round trip, not the median: Go hands a
		// reply to the waiting driver sometimes on the same thread
		// and sometimes across threads, a whole run tends to stay in
		// one regime, and the median flips between 7.3 and 9.3 µs
		// with it while throughput — hence the mean — does not move.
		mean := float64(wall) * float64(conns) / float64(polls)
		return repSample{wall: wall, latency: mean, allocs: float64(m1-m0) / float64(polls)}, nil
	})
	if err := f.checkSettled(); err != nil {
		rep.fail("after polling: %v", err)
	}
	fmt.Fprintf(e.log, "  %d members over %d connections\n", len(f.members), conns)
	// A poll's round trip is mostly kernel wake-ups between two
	// goroutines, and on a shared host their cost moves with the
	// neighbours for minutes at a time, which no choice of repetitions
	// inside one run can escape. The bare socket echo moves with it
	// (README.md, "Host noise": slope 0.93, r 0.94 across 26 run-sized
	// blocks), so poll times are reported on a host whose echo takes
	// nominalEcho: the same first-quartile statistic of the echo rounds
	// that bracket the repetitions sets the scale.
	scale := 1.0
	if len(echoes) > 0 {
		scale = (nominalEcho * echoTrips).Seconds() / fasterHalf(echoes)
	}
	m.endToEnd(e, rep, float64(polls), "polls", scale)
	if e.tr == nil || rep.failed > 0 {
		return rep
	}

	pooled.sorted()
	rep.set("coordinator.poll_rtt_p50_us", pooled.at(0.50)/1e3)
	rep.set("coordinator.poll_rtt_p99_us", pooled.at(0.99)/1e3)
	rep.set("coordinator.poll_rtt_p999_us", pooled.at(0.999)/1e3)
	pacedPhase(e, f, rep)
	wireProbes(e, f, rep)
	memberOpProbes(e, f, rep)
	rep.set("harness.unix_echo_rtt_us", fasterHalf(echoes)*1e6/echoTrips)
	rep.set("coordinator.metrics_series", float64(len(f.coord.Snapshot().Metrics)))
	// The untraced comparison for the overhead figure: the same round
	// with the tracer taken away.
	tr := e.tr
	e.tr = nil
	runtime.GC()
	_, plain, err := round(0)
	e.tr = tr
	if err != nil {
		rep.fail("untraced round: %v", err)
	} else {
		rep.set("harness.trace_overhead_pct", 100*(median(m.walls)-plain.Seconds())/plain.Seconds())
	}
	return rep
}

// pacedPhase polls open-loop at a fixed rate, each poll timed from the
// instant it was due, so a stall is charged to every poll it delays
// (no coordinated omission). It also reports how late the generator
// itself ran.
func pacedPhase(e *env, f *fleet, rep *report) {
	conns := len(f.clients)
	interval := time.Duration(float64(time.Second) * float64(conns) / float64(e.sz.pacedRate))
	per := int(e.sz.pacedSeconds * float64(e.sz.pacedRate) / float64(conns))
	rtts := make([]latencies, conns)
	lags := make([]latencies, conns)
	sp := e.tr.begin(0, "paced", fmt.Sprintf("%d/s", e.sz.pacedRate))
	start := time.Now().Add(time.Millisecond)
	err := f.sweep(func(c int, idx []int) error {
		rtts[c] = make(latencies, 0, per)
		lags[c] = make(latencies, 0, per)
		for k := 0; k < per; k++ {
			due := start.Add(time.Duration(k) * interval)
			// A plain spin, on purpose. time.Sleep overshoots by a
			// millisecond here, ten intervals; yielding in the loop
			// (runtime.Gosched) keeps both processors busy with
			// drivers, so nothing polls the network for up to 10 ms.
			// A spinning driver holds its processor only while its
			// own connection has nothing in flight, and gives it to
			// the server handler the moment it blocks on the reply.
			for time.Now().Before(due) {
			}
			lags[c].add(int64(time.Since(due)))
			if err := f.poll(idx[k%len(idx)]); err != nil {
				return err
			}
			rtts[c].add(int64(time.Since(due)))
		}
		return nil
	})
	e.tr.end(sp)
	if err != nil {
		rep.fail("paced phase: %v", err)
		return
	}
	rep.ok(per * conns)
	var rtt, lag latencies
	for c := range rtts {
		rtt = append(rtt, rtts[c]...)
		lag = append(lag, lags[c]...)
	}
	rtt.sorted()
	lag.sorted()
	rep.set("coordinator.paced_rtt_p50_us", rtt.at(0.50)/1e3)
	rep.set("coordinator.paced_rtt_p99_us", rtt.at(0.99)/1e3)
	rep.set("harness.paced_lag_us_p99", lag.at(0.99)/1e3)
}

// churnVictims picks the members a cycle unregisters and re-registers.
func churnVictims(rng *rand.Rand, m, pct int) []int {
	k := m * pct / 100
	if k < 1 {
		k = 1
	}
	return rng.Perm(m)[:k]
}

// reRegister unregisters and re-registers the victims over their own
// connections and returns the per-operation latencies.
func (f *fleet) reRegister(victims []int) (unreg, reg latencies, err error) {
	for _, i := range victims {
		m := &f.members[i]
		c := f.clients[m.conn]
		t := time.Now()
		if err := c.Unregister(m.name); err != nil {
			return nil, nil, fmt.Errorf("unregister %s: %w", m.name, err)
		}
		unreg.add(int64(time.Since(t)))
		t = time.Now()
		if _, err := c.RegisterWeighted(m.name, m.procs, m.weight); err != nil {
			return nil, nil, fmt.Errorf("register %s: %w", m.name, err)
		}
		reg.add(int64(time.Since(t)))
		m.epoch = 0 // a fresh registration reports no epoch until a rebalance covers it
	}
	return unreg, reg, nil
}

// memberOpProbes times unregister and register round trips on the live
// fleet, then settles it again.
func memberOpProbes(e *env, f *fleet, rep *report) {
	rng := rand.New(rand.NewSource(int64(e.seed) + 7))
	victims := churnVictims(rng, len(f.members), e.sz.churnPct)
	unreg, reg, err := f.reRegister(victims)
	if err == nil {
		// One request at a time, each rebalancing inline before its
		// reply: the last epoch is the one every member now holds.
		_, err = f.settle(nil, 0, uint64(f.coord.Rebalances()))
	}
	if err != nil {
		rep.fail("member op probe: %v", err)
		return
	}
	rep.ok(2 * len(victims))
	rep.set("coordinator.unregister_us_p50", unreg.sorted().at(0.5)/1e3)
	rep.set("coordinator.register_us_p50", reg.sorted().at(0.5)/1e3)

	var status []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		st, err := f.clients[0].Status()
		if err != nil {
			rep.fail("status: %v", err)
			return
		}
		if len(st.Apps) != len(f.members) {
			rep.fail("status lists %d apps, want %d", len(st.Apps), len(f.members))
			return
		}
		status = append(status, ms(time.Since(t)))
	}
	rep.ok(len(status))
	rep.set("coordinator.status_ms", median(status))
}
