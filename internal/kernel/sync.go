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
	waiters []*Process // FIFO arrival order; both running and preempted waiters

	// Stats.
	Acquires       int64
	Contended      int64        // acquisitions that had to spin
	ForcedReleases int64        // releases forced by the holder crashing
	HeldTime       sim.Duration // total time the lock was held
	lockedAt       sim.Time
}

// NewSpinLock returns an unlocked spinlock with a debug name.
func NewSpinLock(name string) *SpinLock {
	return &SpinLock{name: name}
}

// Name returns the debug name.
func (l *SpinLock) Name() string { return l.name }

// Holder returns the process currently holding the lock, or nil.
func (l *SpinLock) Holder() *Process { return l.holder }

// Waiters returns the number of processes waiting (spinning or preempted
// mid-spin).
func (l *SpinLock) Waiters() int { return len(l.waiters) }

// addWaiter appends p in FIFO order.
func (l *SpinLock) addWaiter(p *Process) {
	l.waiters = append(l.waiters, p)
}

// removeWaiter deletes p from the waiter list, preserving order.
func (l *SpinLock) removeWaiter(p *Process) {
	for i, w := range l.waiters {
		if w == p {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			return
		}
	}
}

// firstRunningWaiter returns the earliest-arrived waiter that is
// actually executing on a processor (only a spinning process can observe
// the release and win the lock; one still paying dispatch overhead has
// not issued its spin load yet), or nil.
func (l *SpinLock) firstRunningWaiter() *Process {
	for _, w := range l.waiters {
		if w.state == Running && w.active {
			return w
		}
	}
	return nil
}

// WaitQueue is a FIFO sleep queue. Processes consume no CPU while
// blocked on it. The threads package uses one per application as the
// suspension queue for process control, and the workload generators use
// them for blocking synchronization.
type WaitQueue struct {
	name string
	// procs[head:] are the sleepers, in arrival order. pop advances head
	// instead of re-slicing the front away, so add reuses the array; the
	// storage rewinds when the queue drains.
	procs []*Process
	head  int

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
func (q *WaitQueue) Len() int { return len(q.procs) - q.head }

func (q *WaitQueue) add(p *Process) {
	q.procs = append(q.procs, p)
	q.Sleeps++
}

// remove deletes p if present, preserving order, and reports success.
// It does not count as a wake (fault injection uses it to tear a
// crashed process out of the queue).
func (q *WaitQueue) remove(p *Process) bool {
	for i := q.head; i < len(q.procs); i++ {
		if q.procs[i] == p {
			q.procs = append(q.procs[:i], q.procs[i+1:]...)
			return true
		}
	}
	return false
}

func (q *WaitQueue) pop() *Process {
	if q.head == len(q.procs) {
		return nil
	}
	p := q.procs[q.head]
	q.procs[q.head] = nil
	q.head++
	if q.head == len(q.procs) {
		q.procs, q.head = q.procs[:0], 0
	}
	q.Wakes++
	return p
}
