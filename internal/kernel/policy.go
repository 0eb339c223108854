package kernel

import (
	"slices"

	"procctl/internal/sim"
)

// Policy is a pluggable multiprocessor scheduling discipline. The kernel
// calls Enqueue when a process becomes runnable, PickNext when a
// processor needs work, OnQuantumExpire when a slice ends, and OnExit
// when a process terminates.
//
// Invariants the kernel guarantees: a process given to Enqueue is
// Runnable and stays Runnable until the policy returns it from PickNext;
// each Enqueue is matched by at most one PickNext return; the same
// process is never queued twice.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// Attach is called once, before any scheduling, letting the policy
	// capture the kernel and install periodic events.
	Attach(k *Kernel)

	// Enqueue adds a runnable process to the policy's queue(s).
	Enqueue(p *Process)

	// PickNext removes and returns the next process to run on the given
	// processor, or nil if the policy has nothing for it.
	PickNext(cpu int) *Process

	// OnQuantumExpire is consulted when p's time slice ends. A positive
	// return extends the slice by that amount instead of preempting
	// (the spin-flag policy uses this); zero preempts normally.
	OnQuantumExpire(p *Process) sim.Duration

	// QuantumFor returns the time slice for p; zero selects the kernel
	// default.
	QuantumFor(p *Process) sim.Duration

	// OnExit tells the policy a process has terminated (it is never in
	// the queue at that point).
	OnExit(p *Process)
}

// fifoQueue is a deterministic FIFO of runnable processes used as a
// building block by several policies.
type fifoQueue struct {
	// procs[head:] are the queued processes, in arrival order. Taking
	// the front advances head instead of re-slicing it away, so push
	// reuses the array: the storage rewinds when the queue drains, and a
	// push that finds the array full goes through MakeRoom.
	procs []*Process
	head  int
}

func (q *fifoQueue) push(p *Process) {
	if len(q.procs) == cap(q.procs) {
		q.procs, q.head = MakeRoom(q.procs, q.head), 0
	}
	q.procs = append(q.procs, p)
}

func (q *fifoQueue) len() int { return len(q.procs) - q.head }

// MakeRoom is what a FIFO kept as q[head:] does when its array is full:
// it returns the live part at the front of an array with room behind it,
// order kept and vacated slots zeroed. A dead prefix at least as long as
// the live part is reclaimed in place, so a queue that never drains (an
// oversubscribed machine's run queue) does not grow with every dispatch;
// otherwise the live part moves to an array twice its length. Appends
// stay amortised O(1), the capacity within twice the queue's peak length.
func MakeRoom[T any](q []T, head int) []T {
	live := q[head:]
	if head == 0 || head < len(live) {
		return append(make([]T, 0, max(8, 2*len(live))), live...)
	}
	n := copy(q, live)
	clear(q[n:])
	return q[:n]
}

// items returns the queued processes in arrival order, valid until the
// next change to the queue. Treat it as read-only.
func (q *fifoQueue) items() []*Process { return q.procs[q.head:] }

func (q *fifoQueue) peek() *Process {
	if q.len() == 0 {
		return nil
	}
	return q.procs[q.head]
}

func (q *fifoQueue) pop() *Process {
	if q.len() == 0 {
		return nil
	}
	return q.removeAt(0)
}

// removeAt removes and returns items()[i], preserving order.
func (q *fifoQueue) removeAt(i int) *Process {
	i += q.head
	p := q.procs[i]
	if i == q.head {
		q.procs[i] = nil
		q.head++
	} else {
		q.procs = slices.Delete(q.procs, i, i+1)
	}
	if q.head == len(q.procs) {
		q.procs, q.head = q.procs[:0], 0
	}
	return p
}

// remove deletes p if present, preserving order, and reports success.
func (q *fifoQueue) remove(p *Process) bool {
	i := slices.Index(q.items(), p)
	if i < 0 {
		return false
	}
	q.removeAt(i)
	return true
}

// popWhere removes and returns the first process satisfying pred, or nil.
func (q *fifoQueue) popWhere(pred func(*Process) bool) *Process {
	i := slices.IndexFunc(q.items(), pred)
	if i < 0 {
		return nil
	}
	return q.removeAt(i)
}
