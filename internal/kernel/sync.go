package kernel

import "procctl/internal/sim"

// SpinLock is a busy-waiting mutual-exclusion lock, the synchronization
// primitive whose interaction with preemption drives the paper's
// performance collapse. A process that finds the lock held spins,
// consuming its quantum; if the holder is preempted, every running waiter
// wastes its entire time slice.
type SpinLock struct {
	name    string
	holder  *Process
	waiters FIFO[*Process] // arrival order; both running and preempted waiters

	// Stats.
	Acquires       int64
	Contended      int64        // acquisitions that had to spin
	ForcedReleases int64        // releases forced by the holder crashing
	HeldTime       sim.Duration // total time the lock was held
	lockedAt       sim.Time
}

// NewSpinLock returns an unlocked spinlock with a debug name. The
// kernel keeps every lock it makes, to sum their forced releases into
// its metrics.
func (k *Kernel) NewSpinLock(name string) *SpinLock {
	l := &SpinLock{name: name}
	k.locks = append(k.locks, l)
	return l
}

// Name returns the debug name.
func (l *SpinLock) Name() string { return l.name }

// Holder returns the process currently holding the lock, or nil.
func (l *SpinLock) Holder() *Process { return l.holder }

// firstRunningWaiter returns the position among the waiters of the
// earliest-arrived one that is actually executing on a processor (only a
// spinning process can observe the release and win the lock; one still
// paying dispatch overhead has not issued its spin load yet), or -1.
func (l *SpinLock) firstRunningWaiter() int {
	for i, w := range l.waiters.items() {
		if w.state == Running && w.active {
			return i
		}
	}
	return -1
}

// WaitQueue is a FIFO sleep queue. Processes consume no CPU while
// blocked on it. The threads package uses one per application as the
// suspension queue for process control, and the workload generators use
// them for blocking synchronization.
type WaitQueue struct {
	name  string
	procs FIFO[*Process] // the sleepers, in arrival order

	// Stats.
	Sleeps int64
	Wakes  int64
}

// NewWaitQueue returns an empty queue with a debug name.
func NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{name: name}
}

// Name returns the debug name.
func (q *WaitQueue) Name() string { return q.name }

// Len returns the number of sleeping processes.
func (q *WaitQueue) Len() int { return q.procs.Len() }

func (q *WaitQueue) add(p *Process) {
	q.procs.Push(p)
	q.Sleeps++
}

func (q *WaitQueue) pop() *Process {
	p := q.procs.Pop()
	if p != nil {
		q.Wakes++
	}
	return p
}
