// Package pool is the paper's modified threads package transplanted to
// modern Go: an adaptive worker pool that executes queued tasks on a set
// of workers and can suspend or resume workers between tasks — the safe
// suspension points of Section 4.1 — to track a target set by a central
// coordinator. Application code only submits tasks; the process control
// is completely transparent, exactly as in the paper.
package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"procctl/internal/flight"
)

// Task is one unit of work (the paper's "task": a chunk of computation
// assigned to whatever worker dequeues it).
type Task func()

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("pool: closed")

// Config configures a Pool.
type Config struct {
	// Name identifies the pool to coordinators and in diagnostics.
	Name string
	// Workers is the number of worker goroutines (the application's
	// "processes"). Default: runtime.GOMAXPROCS(0).
	Workers int
	// Flight, when non-nil, receives an epoch-stamped settle event each
	// time the pool's runnable-worker count actually reaches a changed
	// target — the last hop of a rebalance decision's propagation.
	// Share the client driver's recorder so the two streams interleave.
	Flight *flight.Recorder
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	Submitted   int64
	Completed   int64
	Suspensions int64 // workers parked by process control
	Resumes     int64 // workers unparked by process control
}

// Pool runs tasks on a fixed set of workers, at most Target of which are
// runnable at any time.
type Pool struct {
	name    string
	workers int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []Task
	target   int
	runnable int // workers not suspended by process control
	closed   bool

	// Epoch provenance, under mu: the rebalance epoch of the current
	// target and whether the runnable count has reached it yet; floor is
	// the newest non-zero epoch pushed, whether or not it moved the
	// target. rec is Config.Flight (nil = no settle events).
	epoch   uint64
	floor   uint64
	settled bool
	rec     *flight.Recorder

	// Wall-clock worker-time accounting, nanoseconds under mu: busy
	// (inside a task) and idle (runnable but waiting for work). Time
	// parked by process control is deliberate, not waste, and not timed.
	busyNanos int64
	idleNanos int64

	// Counts, under mu; Stats reads them.
	submitted, completed, parks, unparks int64

	wg sync.WaitGroup
}

// New creates and starts a pool.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Name == "" {
		cfg.Name = "pool"
	}
	p := &Pool{
		name:     cfg.Name,
		workers:  cfg.Workers,
		target:   cfg.Workers,
		runnable: cfg.Workers,
		settled:  true,
		rec:      cfg.Flight,
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Workers returns the total worker count — the cap the coordinator uses
// ("never assign more processors than the application has processes").
func (p *Pool) Workers() int { return p.workers }

// Submit queues a task. It returns ErrClosed after Close.
func (p *Pool) Submit(t Task) error {
	if t == nil {
		return errors.New("pool: nil task")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.queue = append(p.queue, t)
	p.submitted++
	// This also wakes the suspended workers, which share the idle ones' cond
	// and wait again. A second cond for them cut pool_tasks'
	// pool.retarget_settle_us_p99 from 151 to 86 µs, but raised its
	// latency_us, the settle p50, from 2.5 to 3.3 µs and cost 2 % of its
	// ops_per_s (EXPERIMENTS.md SIMPL-16), so it is not taken; ROADMAP item
	// 1 counts the context switches this costs pool children.
	p.cond.Broadcast()
	return nil
}

// SetTarget sets how many workers may be runnable. Values are clamped
// to [1, Workers]: the paper's starvation floor guarantees at least one.
func (p *Pool) SetTarget(n int) {
	p.SetTargetEpoch(n, 0)
}

// SetTargetEpoch is SetTarget carrying the epoch of the coordinator
// rebalance that computed the target, for provenance: the settle event
// recorded when the runnable count reaches the target is stamped with
// it. Re-pushes of an unchanged target keep the epoch that set it and
// settle nothing — only genuine changes have propagation to observe.
// Newest epoch wins: rebalances push outside the coordinator's locks, so
// the older of two racing pushes can arrive second, and a non-zero epoch
// below the newest one pushed is refused. Epoch 0 always applies. The
// target is applied before returning (workers converge to it at their
// next safe suspension point), so it reports true — in-process members
// acknowledge their epoch synchronously, and a refused one is answered
// by the newer target already in force.
func (p *Pool) SetTargetEpoch(n int, epoch uint64) bool {
	if n < 1 {
		n = 1
	}
	if n > p.workers {
		n = p.workers
	}
	p.mu.Lock()
	if epoch != 0 && epoch < p.floor {
		p.mu.Unlock()
		return true
	}
	p.floor = max(p.floor, epoch)
	moved := n != p.target
	if moved {
		p.target = n
		p.epoch = epoch
		p.settled = false
		p.maybeSettleLocked()
	}
	p.mu.Unlock()
	// Only a target that moved gives parked and idle workers something to
	// re-check, and most of a coordinator's pushes repeat the target held.
	if moved {
		p.cond.Broadcast()
	}
	return true
}

// Target returns the current runnable-worker target.
func (p *Pool) Target() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

// ResetEpoch forgets the newest epoch pushed, so that the next push
// applies whatever its epoch. A coordinator that restarts without its
// journal numbers its epochs from 1 again.
func (p *Pool) ResetEpoch() {
	p.mu.Lock()
	p.floor = 0
	p.mu.Unlock()
}

// Settled reports whether the runnable count has reached the current
// target.
func (p *Pool) Settled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.settled
}

// maybeSettleLocked records the settle instant — the runnable count
// reaching the target — once per target change. Callers hold p.mu; the
// flight append takes only the ring's own leaf mutex.
func (p *Pool) maybeSettleLocked() {
	if p.settled || p.runnable != p.target {
		return
	}
	p.settled = true
	if p.rec != nil {
		p.rec.Append(flight.Event{At: time.Now().UnixMicro(), Kind: flight.KindSettle,
			App: p.name, A: int64(p.target), Epoch: p.epoch})
	}
}

// Runnable returns how many workers are currently not suspended.
func (p *Pool) Runnable() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runnable
}

// SpinPercent reports the share of the pool's runnable worker time spent
// parked waiting for work rather than executing it: 100*idle/(busy+idle).
// An idle worker does not spin: it blocks on the pool's sync.Cond until a
// Submit or a target change wakes it, and that wait is what idle counts.
// Time parked by process control is excluded — a suspended worker is
// deliberately yielding its processor. The coordinator protocol forwards
// this as procctl-top's SPIN% column, a name kept from the simulator's
// spin-waste metric, which it stands in for. Returns 0 before any worker
// has done either.
func (p *Pool) SpinPercent() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.busyNanos + p.idleNanos
	if total == 0 {
		return 0
	}
	return 100 * float64(p.idleNanos) / float64(total)
}

// Stats returns a snapshot of the pool's counters. They move under
// p.mu, so it is of one instant: Completed never exceeds Submitted.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Submitted: p.submitted, Completed: p.completed,
		Suspensions: p.parks, Resumes: p.unparks}
}

// Close stops intake. Workers exit once the queue drains; Wait blocks
// until they have.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Wait blocks until Close has been called and all tasks have finished.
func (p *Pool) Wait() {
	p.wg.Wait()
}

// worker is the scheduler loop of one worker: dequeue, execute, and at
// every task boundary — the safe suspension point — yield to process
// control.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if p.closed && len(p.queue) == 0 {
			p.mu.Unlock()
			// Release suspended or idle peers so they can exit too.
			p.cond.Broadcast()
			return
		}
		// Safe suspension point: between tasks, holding no task state.
		if p.runnable > p.target && p.runnable > 1 {
			p.runnable--
			p.parks++
			p.maybeSettleLocked()
			for p.runnable >= p.target && !(p.closed && len(p.queue) == 0) {
				p.cond.Wait()
			}
			p.runnable++
			p.unparks++
			p.maybeSettleLocked()
			continue
		}
		if len(p.queue) == 0 {
			idle := time.Now()
			p.cond.Wait()
			p.idleNanos += time.Since(idle).Nanoseconds()
			continue
		}
		t := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()

		start := time.Now()
		t()
		busy := time.Since(start).Nanoseconds()

		p.mu.Lock()
		p.busyNanos += busy
		p.completed++
	}
}

// String describes the pool state.
func (p *Pool) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("pool %q: %d workers, target %d, runnable %d, %d queued",
		p.name, p.workers, p.target, p.runnable, len(p.queue))
}
