package kernel

import "procctl/internal/sim"

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

// defaultHooks supplies the Policy hooks a policy that has no use for
// them embeds: preempt when a quantum expires, the kernel's default
// quantum, nothing to do at exit.
type defaultHooks struct{}

func (defaultHooks) OnQuantumExpire(*Process) sim.Duration { return 0 }
func (defaultHooks) QuantumFor(*Process) sim.Duration      { return 0 }
func (defaultHooks) OnExit(*Process)                       {}

// appQueues is one run queue per application, kept with the order in
// which the applications first enqueued (the deterministic iteration
// order Cosched's gangs and Partition's groups walk).
type appQueues struct {
	byApp map[AppID]*FIFO[*Process]
	order []AppID
}

// of returns app's queue, creating it on first use.
func (a *appQueues) of(app AppID) *FIFO[*Process] {
	q, ok := a.byApp[app]
	if !ok {
		if a.byApp == nil {
			a.byApp = make(map[AppID]*FIFO[*Process])
		}
		q = &FIFO[*Process]{}
		a.byApp[app] = q
		a.order = append(a.order, app)
	}
	return q
}
