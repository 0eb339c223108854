package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"procctl/internal/flight"
	"procctl/internal/runtime/pool"
)

// pool_tasks is the paper's modified threads package on an adopter's
// hot path: one pool.Pool executing short CPU tasks (Submit, dequeue,
// park/unpark at task boundaries) while a controller keeps changing its
// target, as a coordinator would. No socket, coordinator or simulator
// code runs, so control-plane work must not move it.

const (
	poolBacklog    = 1024 // submitted-but-unfinished tasks the producer may have outstanding
	retargetEvery  = 2 * time.Millisecond
	poolSampleMask = 63 // in a traced run one task in 64 is timestamped
	// settleRing holds the pool's settle events of one repetition with
	// room to spare: one per target change, 500 a second.
	settleRing = 4096
)

// poolInputs are the seeded inputs: per task a spin length and a
// checksum share.
type poolInputs struct {
	iters []uint32
	share []uint64
	sum   uint64
}

func genPoolInputs(seed uint64, n, meanIter int) *poolInputs {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &poolInputs{iters: make([]uint32, n), share: make([]uint64, n)}
	for i := 0; i < n; i++ {
		in.iters[i] = uint32(meanIter/2 + rng.Intn(meanIter+1)) // uniform, mean meanIter
		in.share[i] = rng.Uint64()
		in.sum += in.share[i]
	}
	return in
}

func spin(n uint32, x uint64) uint64 {
	x |= 1
	for i := uint32(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// retargeter plays the coordinator: every retargetEvery it flips the
// pool's target between 1 and the processor count. How long a change
// took to settle is read from the pool's own flight events (the pool
// stamps the instant its runnable count reached the target), so the
// figure holds no polling delay of the harness.
type retargeter struct {
	p    *pool.Pool
	tr   *tracer
	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	issued  []int64 // issued[k] = Unix µs at which epoch k+1's target was set
	bad     int     // settles that left more workers runnable than the target
	skipped int     // ticks at which the previous change had not settled yet
}

func startRetargeter(p *pool.Pool, tr *tracer) *retargeter {
	r := &retargeter{p: p, tr: tr, stop: make(chan struct{})}
	r.wg.Add(1)
	go r.loop()
	return r
}

func (r *retargeter) loop() {
	defer r.wg.Done()
	ticker := time.NewTicker(retargetEvery)
	defer ticker.Stop()
	hi := runtime.GOMAXPROCS(0)
	if hi < 2 {
		hi = 2 // a one-processor host still has to see the target move
	}
	target := 0
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		if target != 0 {
			settled, over := r.p.Settled(), r.p.Runnable() > target
			r.mu.Lock()
			if !settled {
				r.skipped++
			} else if over {
				r.bad++
			}
			r.mu.Unlock()
			if !settled {
				continue
			}
		}
		sp := r.tr.begin(0, "pool.retarget", "")
		r.mu.Lock()
		r.issued = append(r.issued, time.Now().UnixMicro())
		epoch := uint64(len(r.issued))
		r.mu.Unlock()
		target = 1
		if epoch%2 == 0 {
			target = hi
		}
		r.p.SetTargetEpoch(target, epoch)
		r.tr.end(sp)
	}
}

func (r *retargeter) halt() {
	close(r.stop)
	r.wg.Wait()
}

// settles returns, for the pool's settle events from sequence number
// from on, the time from setting the target to the settle, in
// nanoseconds, and the sequence number to continue from.
func (r *retargeter) settles(rec *flight.Recorder, from uint64) (latencies, uint64) {
	var out latencies
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range rec.Snapshot(0) {
		if ev.Seq < from {
			continue
		}
		from = ev.Seq + 1
		if ev.Kind == flight.KindSettle && ev.Epoch >= 1 && int(ev.Epoch) <= len(r.issued) {
			out.add((ev.At - r.issued[ev.Epoch-1]) * 1000)
		}
	}
	return out, from
}

// counts returns how many changes were issued, and the two failure
// counts.
func (r *retargeter) counts() (issued, bad, skipped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.issued), r.bad, r.skipped
}

func runPoolTasks(e *env) *report {
	rep := newReport()
	n := e.sz.tasksPerRep
	workers := 4 * runtime.GOMAXPROCS(0)

	var in *poolInputs
	var p *pool.Pool
	var rec *flight.Recorder
	var sum, sink atomic.Uint64
	var done atomic.Int64
	// sem bounds the backlog: a slot is taken before Submit and freed
	// when the task finishes, so at most poolBacklog tasks are queued
	// or running and the producer blocks instead of spinning.
	sem := make(chan struct{}, poolBacklog)
	sampled := e.tr != nil
	var submitNs, submits int64
	var dispatch latencies
	var dispatchMu sync.Mutex

	round := func() (time.Duration, error) {
		sum.Store(0)
		done.Store(0)
		before := p.Stats()
		start := time.Now()
		for i := 0; i < n; i++ {
			i := i
			sem <- struct{}{}
			var queued time.Time
			stamp := sampled && i&poolSampleMask == 0
			if stamp {
				queued = time.Now()
			}
			err := p.Submit(func() {
				if stamp {
					d := time.Since(queued)
					dispatchMu.Lock()
					dispatch.add(int64(d))
					dispatchMu.Unlock()
				}
				sink.Add(spin(in.iters[i], in.share[i]))
				sum.Add(in.share[i])
				done.Add(1)
				<-sem
			})
			if stamp {
				submitNs += int64(time.Since(queued))
				submits++
			}
			if err != nil {
				return 0, fmt.Errorf("submit: %w", err)
			}
		}
		for k := 0; k < poolBacklog; k++ { // every slot back = every task finished
			sem <- struct{}{}
		}
		wall := time.Since(start)
		for k := 0; k < poolBacklog; k++ {
			<-sem
		}
		// A task frees its slot from inside the task; the worker
		// counts it completed just after. Give the last ones a moment.
		after := p.Stats()
		for wait := time.Now(); after.Completed-before.Completed < int64(n) && time.Since(wait) < time.Second; {
			runtime.Gosched()
			after = p.Stats()
		}
		switch {
		case done.Load() != int64(n):
			return 0, fmt.Errorf("%d of %d tasks ran", done.Load(), n)
		case sum.Load() != in.sum:
			return 0, fmt.Errorf("task checksum %x, want %x: some task did not run exactly once", sum.Load(), in.sum)
		case after.Completed-before.Completed != int64(n) || after.Submitted-before.Submitted != int64(n):
			return 0, fmt.Errorf("pool counted %d submitted, %d completed, want %d",
				after.Submitted-before.Submitted, after.Completed-before.Completed, n)
		}
		return wall, nil
	}

	// Set-up: derive the inputs from the seed, start the pool and put
	// one round of tasks through it (the warm-up every workload does),
	// so the figure is the time from nothing to a pool at speed.
	var setups []float64
	stopPool := func() {
		if p != nil {
			p.Close()
			p.Wait()
		}
	}
	defer func() { stopPool() }()
	for i := 0; i < e.sz.setupReps; i++ {
		stopPool()
		took, err := timedSetup(func() error {
			in = genPoolInputs(e.seed, n, e.sz.spinMeanIter)
			rec = flight.New(settleRing)
			p = pool.New(pool.Config{Name: "bench", Workers: workers, Flight: rec})
			_, err := round()
			return err
		})
		if err != nil {
			rep.fail("set-up: %v", err)
			return rep
		}
		setups = append(setups, took)
	}

	ctl := startRetargeter(p, e.tr)
	if _, err := round(); err != nil { // warm-up with the controller running
		ctl.halt()
		rep.fail("warm-up: %v", err)
		return rep
	}
	_, seq := ctl.settles(rec, 0) // the warm-up's settles are not measured
	statsFrom := p.Stats()
	var pooled latencies
	m := e.measure(rep, func(i int) (repSample, error) {
		sp := e.tr.begin(0, "rep", fmt.Sprintf("rep%d", i))
		m0 := mallocs()
		wall, err := round()
		m1 := mallocs()
		e.tr.end(sp)
		if err != nil {
			return repSample{}, err
		}
		rep.ok(n)
		var settle latencies
		settle, seq = ctl.settles(rec, seq)
		pooled = append(pooled, settle...)
		return repSample{wall: wall, latency: settle.sorted().atTicks(0.50, 1e3), allocs: float64(m1-m0) / float64(n)}, nil
	})
	statsTo := p.Stats()
	ctl.halt()
	issued, bad, skipped := ctl.counts()
	switch {
	case bad > 0:
		rep.fail("%d settles left more workers runnable than the target", bad)
	case len(pooled) == 0:
		rep.fail("%d target changes issued, none settled", issued)
	default:
		rep.ok(len(pooled))
	}
	pooled.sorted()
	fmt.Fprintf(e.log, "  %d workers, %d target changes settled (%d ticks waited for a settle); settle us p50 %.2f p90 %.2f p99 %.2f\n",
		workers, len(pooled), skipped, pooled.atTicks(0.50, 1e3)/1e3, pooled.atTicks(0.90, 1e3)/1e3, pooled.atTicks(0.99, 1e3)/1e3)
	// The operation whose latency a user of the pool sees is a target
	// change taking effect.
	m.endToEnd(e, rep, float64(n), "tasks", 1)
	if e.tr == nil {
		rep.set("setup_s", median(setups))
		return rep
	}

	if submits > 0 {
		rep.set("pool.submit_ns", float64(submitNs)/float64(submits))
	}
	rep.set("pool.dispatch_us_p50", dispatch.sorted().at(0.5)/1e3)
	rep.set("pool.parks", float64(statsTo.Suspensions-statsFrom.Suspensions))
	rep.set("pool.unparks", float64(statsTo.Resumes-statsFrom.Resumes))
	rep.set("pool.spin_pct", p.SpinPercent())
	rep.set("pool.retarget_settle_us_p99", pooled.atTicks(0.99, 1e3)/1e3)

	// Overhead of the traced run's sampling and spans: one more round
	// with both off, controller running as before.
	sampled = false
	ctl = startRetargeter(p, nil)
	runtime.GC()
	plain, err := round()
	ctl.halt()
	if err != nil {
		rep.fail("untraced round: %v", err)
	} else {
		rep.set("harness.trace_overhead_pct", 100*(median(m.walls)-plain.Seconds())/plain.Seconds())
	}
	return rep
}
