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
	"procctl/internal/metrics"
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
	// Target is the initial number of runnable workers; 0 means all.
	Target int
	// Metrics is the registry the pool instruments, labeled
	// pool=<Name>; nil creates a private registry (read it with
	// Metrics). Sharing one registry across pools and an in-process
	// coordinator yields a single exportable snapshot.
	Metrics *metrics.Registry
	// Flight, when non-nil, receives an epoch-stamped settle event each
	// time the pool's runnable-worker count actually reaches a changed
	// target — the last hop of a rebalance decision's propagation.
	// Share the client driver's recorder so the two streams interleave.
	Flight *flight.Recorder
}

// Stats is a snapshot of pool accounting.
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

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []Task
	target    int
	runnable  int // workers not suspended by process control
	executing int // workers currently inside a task
	closed    bool
	stats     Stats

	// Epoch provenance, under mu: the rebalance epoch of the current
	// target and whether the runnable count has reached it yet; floor is
	// the newest non-zero epoch pushed, whether or not it moved the
	// target. rec is Config.Flight (nil = no settle events).
	epoch   uint64
	floor   uint64
	settled bool
	rec     *flight.Recorder

	// Wall-clock worker-time accounting, all nanoseconds under mu:
	// busy (inside a task), idle (runnable but waiting for work), and
	// parked (suspended by process control — deliberate, not waste).
	busyNanos int64
	idleNanos int64
	parkNanos int64

	wg  sync.WaitGroup
	met poolMetrics
}

// poolMetrics is the pool's slice of a metrics registry, labeled by
// pool name. The runtime layer runs on the wall clock (unlike the
// simulator's counters, which are in virtual time).
type poolMetrics struct {
	reg       *metrics.Registry
	submitted *metrics.Counter
	completed *metrics.Counter
	parks     *metrics.Counter
	unparks   *metrics.Counter
	service   *metrics.Histogram
}

func newPoolMetrics(reg *metrics.Registry, name string) poolMetrics {
	return poolMetrics{
		reg:       reg,
		submitted: reg.Counter(metrics.Name("pool_tasks_submitted_total", "pool", name), "tasks queued"),
		completed: reg.Counter(metrics.Name("pool_tasks_completed_total", "pool", name), "tasks finished"),
		parks:     reg.Counter(metrics.Name("pool_parks_total", "pool", name), "workers parked by process control"),
		unparks:   reg.Counter(metrics.Name("pool_unparks_total", "pool", name), "workers unparked by process control"),
		service:   reg.Histogram(metrics.Name("pool_task_micros", "pool", name), "per-task wall-clock execution time", nil),
	}
}

// Metrics returns the registry this pool instruments (the one from
// Config.Metrics, or the private one created for it).
func (p *Pool) Metrics() *metrics.Registry { return p.met.reg }

// New creates and starts a pool.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Target <= 0 || cfg.Target > cfg.Workers {
		cfg.Target = cfg.Workers
	}
	if cfg.Name == "" {
		cfg.Name = "pool"
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	p := &Pool{
		name:     cfg.Name,
		workers:  cfg.Workers,
		target:   cfg.Target,
		runnable: cfg.Workers,
		settled:  cfg.Target == cfg.Workers,
		rec:      cfg.Flight,
		met:      newPoolMetrics(cfg.Metrics, cfg.Name),
	}
	p.cond = sync.NewCond(&p.mu)
	cfg.Metrics.OnCollect(func() {
		reg := p.met.reg
		p.mu.Lock()
		backlog, runnable, executing, target := len(p.queue), p.runnable, p.executing, p.target
		p.mu.Unlock()
		reg.Gauge(metrics.Name("pool_backlog", "pool", p.name), "queued tasks not yet started").Set(int64(backlog))
		reg.Gauge(metrics.Name("pool_runnable", "pool", p.name), "workers not parked").Set(int64(runnable))
		reg.Gauge(metrics.Name("pool_executing", "pool", p.name), "workers inside a task").Set(int64(executing))
		reg.Gauge(metrics.Name("pool_target", "pool", p.name), "runnable-worker target").Set(int64(target))
		p.mu.Lock()
		busy, idle, parked := p.busyNanos, p.idleNanos, p.parkNanos
		p.mu.Unlock()
		reg.Gauge(metrics.Name("pool_busy_micros", "pool", p.name), "wall-clock worker time inside tasks").Set(busy / 1000)
		reg.Gauge(metrics.Name("pool_idle_micros", "pool", p.name), "wall-clock worker time waiting for work").Set(idle / 1000)
		reg.Gauge(metrics.Name("pool_parked_micros", "pool", p.name), "wall-clock worker time parked by process control").Set(parked / 1000)
	})
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
	p.stats.Submitted++
	p.met.submitted.Inc()
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

// Epoch returns the rebalance epoch of the current target (0 when the
// target was set without one).
func (p *Pool) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
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

// Executing returns how many workers are currently inside a task.
func (p *Pool) Executing() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.executing
}

// Backlog returns the number of queued (not yet started) tasks.
func (p *Pool) Backlog() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// SpinPercent reports the share of the pool's active worker time spent
// waiting for work rather than executing it: 100*idle/(busy+idle).
// Time parked by process control is excluded — a parked worker is
// deliberately yielding its processor, the opposite of wasting it. The
// coordinator protocol forwards this as the per-app spin%% column in
// procctl-top; it is the runtime analogue of the simulator's wasted-
// cycle attribution. Returns 0 before any worker has done either.
func (p *Pool) SpinPercent() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.busyNanos + p.idleNanos
	if total == 0 {
		return 0
	}
	return 100 * float64(p.idleNanos) / float64(total)
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
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
			p.stats.Suspensions++
			p.met.parks.Inc()
			p.maybeSettleLocked()
			parked := time.Now()
			for p.runnable >= p.target && !(p.closed && len(p.queue) == 0) {
				p.cond.Wait()
			}
			p.parkNanos += time.Since(parked).Nanoseconds()
			p.runnable++
			p.stats.Resumes++
			p.met.unparks.Inc()
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
		p.executing++
		p.mu.Unlock()

		start := time.Now()
		t()
		busy := time.Since(start)
		p.met.service.Observe(busy.Microseconds())

		p.mu.Lock()
		p.busyNanos += busy.Nanoseconds()
		p.executing--
		p.stats.Completed++
		p.met.completed.Inc()
	}
}

// String describes the pool state.
func (p *Pool) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("pool %q: %d workers, target %d, runnable %d, %d queued",
		p.name, p.workers, p.target, p.runnable, len(p.queue))
}
