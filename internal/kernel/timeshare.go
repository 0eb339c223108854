package kernel

import "procctl/internal/sim"

// Timeshare is the paper's baseline scheduler: a UMAX/4.2BSD-style
// time-sharing discipline. Runnable processes sit on FIFO queues ordered
// by a priority derived from decayed recent CPU usage; the scheduler is
// oblivious to applications, locks, and caches. Newly started processes
// have no accumulated usage and therefore outrank long-running ones —
// the effect the paper invokes to explain matmul's Figure 4 anomaly.
type Timeshare struct {
	// Levels is the number of priority buckets (default 32).
	Levels int
	// DecayInterval is how often usage decays (default 1 s).
	DecayInterval sim.Duration
	// DecayFactor multiplies usage at each decay (default 0.66).
	DecayFactor float64
	// UsagePerLevel is the accumulated-CPU step between adjacent
	// priority levels (default 100 ms).
	UsagePerLevel sim.Duration

	k   *Kernel
	q   fifoQueue
	seq uint64
}

// NewTimeshare returns the baseline policy with default parameters.
func NewTimeshare() *Timeshare { return &Timeshare{} }

// Name implements Policy.
func (t *Timeshare) Name() string { return "timeshare" }

// Attach implements Policy.
func (t *Timeshare) Attach(k *Kernel) {
	t.k = k
	if t.Levels <= 0 {
		t.Levels = 32
	}
	if t.DecayInterval <= 0 {
		t.DecayInterval = sim.Second
	}
	if t.DecayFactor <= 0 || t.DecayFactor >= 1 {
		t.DecayFactor = 0.66
	}
	if t.UsagePerLevel <= 0 {
		t.UsagePerLevel = 100 * sim.Millisecond
	}
	k.Engine().Every(t.DecayInterval, func() bool {
		t.decay()
		return k.Live() > 0
	})
}

// decay ages every live process's usage and refreshes queued priorities.
func (t *Timeshare) decay() {
	for _, p := range t.k.Processes() {
		if p.State() == Exited {
			continue
		}
		p.usage *= t.DecayFactor
		p.priority = t.prioOf(p)
	}
}

func (t *Timeshare) prioOf(p *Process) int {
	lvl := int(p.usage / float64(t.UsagePerLevel))
	if lvl >= t.Levels {
		lvl = t.Levels - 1
	}
	return lvl
}

// Enqueue implements Policy.
func (t *Timeshare) Enqueue(p *Process) {
	p.priority = t.prioOf(p)
	t.q.push(p)
}

// PickNext implements Policy: best (lowest) priority wins; FIFO order
// breaks ties, so a long queue means a long requeue delay — the paper's
// Section 2 FIFO observation.
func (t *Timeshare) PickNext(cpu int) *Process {
	if t.q.len() == 0 {
		return nil
	}
	queued := t.q.items()
	best := 0
	for i, p := range queued {
		if p.priority < queued[best].priority {
			best = i
		}
	}
	return t.q.removeAt(best)
}

// OnQuantumExpire implements Policy: always preempt.
func (t *Timeshare) OnQuantumExpire(p *Process) sim.Duration { return 0 }

// QuantumFor implements Policy: kernel default.
func (t *Timeshare) QuantumFor(p *Process) sim.Duration { return 0 }

// OnExit implements Policy.
func (t *Timeshare) OnExit(p *Process) {}

// QueueLen reports the current run-queue length (for tests and traces).
func (t *Timeshare) QueueLen() int { return t.q.len() }
