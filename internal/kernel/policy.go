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
	// reuses the array; the storage rewinds when the queue drains.
	procs []*Process
	head  int
}

func (q *fifoQueue) push(p *Process) { q.procs = append(q.procs, p) }
func (q *fifoQueue) len() int        { return len(q.procs) - q.head }

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
