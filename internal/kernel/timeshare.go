package kernel

import "procctl/internal/sim"

// Timeshare is the paper's baseline scheduler: a UMAX/4.2BSD-style
// time-sharing discipline. Runnable processes sit on FIFO queues ordered
// by a priority derived from decayed recent CPU usage; the scheduler is
// oblivious to applications, locks, and caches. Newly started processes
// have no accumulated usage and outrank long-running ones. The paper
// explains matmul's Figure 4 row by this; that row does not reproduce here.
type Timeshare struct {
	defaultHooks
	k *Kernel
	q FIFO[*Process]
}

const (
	// timeshareLevels is the number of priority buckets.
	timeshareLevels = 32
	// decayInterval is how often usage decays.
	decayInterval = sim.Second
	// decayFactor multiplies usage at each decay.
	decayFactor = 0.66
	// usagePerLevel is the accumulated-CPU step between adjacent
	// priority levels.
	usagePerLevel = 100 * sim.Millisecond
)

// NewTimeshare returns the baseline policy.
func NewTimeshare() *Timeshare { return &Timeshare{} }

// Name implements Policy.
func (t *Timeshare) Name() string { return "timeshare" }

// Attach implements Policy.
func (t *Timeshare) Attach(k *Kernel) {
	t.k = k
	k.Engine().Every(decayInterval, func() bool {
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
		p.usage *= decayFactor
		p.priority = t.prioOf(p)
	}
}

func (t *Timeshare) prioOf(p *Process) int {
	return min(int(p.usage/float64(usagePerLevel)), timeshareLevels-1)
}

// Enqueue implements Policy.
func (t *Timeshare) Enqueue(p *Process) {
	p.priority = t.prioOf(p)
	t.q.Push(p)
}

// PickNext implements Policy: best (lowest) priority wins; FIFO order
// breaks ties, so a long queue means a long requeue delay — the paper's
// Section 2 FIFO observation.
func (t *Timeshare) PickNext(cpu int) *Process {
	if t.q.Len() == 0 {
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
