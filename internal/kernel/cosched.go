package kernel

import "procctl/internal/sim"

// Cosched is Ousterhout's coscheduling (gang scheduling) from the
// paper's Section 3: all runnable processes of an application are
// scheduled and preempted together, in rotating time slices. Spin-wait
// pathologies disappear (a lock holder's peers run whenever it does),
// but context-switch overhead and cache corruption remain — the paper's
// criticism — because whole applications still rotate across the CPUs.
//
// The gang rotation period (the slice) is the kernel quantum. Rotation
// does the preempting: a quantum that expires mid-slice just requeues.
type Cosched struct {
	defaultHooks
	k      *Kernel
	gangs  appQueues // rotation index walks gangs.order
	rot    int
	active FIFO[*Process] // the current activation, popped by PickNext
}

// NewCosched returns a coscheduling policy.
func NewCosched() *Cosched { return &Cosched{} }

// Name implements Policy.
func (c *Cosched) Name() string { return "cosched" }

// Attach implements Policy.
func (c *Cosched) Attach(k *Kernel) {
	c.k = k
	k.Engine().Every(k.cfg.Quantum, func() bool {
		c.rotate()
		return k.Live() > 0
	})
}

// Enqueue implements Policy.
func (c *Cosched) Enqueue(p *Process) { c.gangs.of(p.app).Push(p) }

// rotate advances the gang window: it selects the applications to run
// for the next slice, preempts running processes that are not part of
// the selection, and exposes the selection to PickNext.
func (c *Cosched) rotate() {
	// Return any unconsumed activation entries to their gangs.
	for c.active.Len() > 0 {
		p := c.active.Pop()
		c.gangs.of(p.app).Push(p)
	}

	ncpu := c.k.NumCPU()

	// Count per-gang demand including currently running processes.
	runningBy := make(map[AppID]int)
	for i := 0; i < ncpu; i++ {
		if p := c.k.RunningOn(i); p != nil {
			runningBy[p.app]++
		}
	}

	// Advance rotation to the next gang with demand.
	order := c.gangs.order
	for step := 0; step < len(order); step++ {
		c.rot = (c.rot + 1) % len(order)
		if app := order[c.rot]; c.gangs.byApp[app].Len()+runningBy[app] > 0 {
			break
		}
	}

	// Build the selection: whole gangs in rotation order until the
	// machine is full.
	selected := make(map[AppID]bool)
	slots := ncpu
	for step := 0; step < len(order) && slots > 0; step++ {
		app := order[(c.rot+step)%len(order)]
		demand := c.gangs.byApp[app].Len() + runningBy[app]
		if demand == 0 || demand > slots {
			continue
		}
		selected[app] = true
		slots -= demand
	}

	// Preempt running processes whose gang was not selected.
	for i := 0; i < ncpu; i++ {
		if p := c.k.RunningOn(i); p != nil && !selected[p.app] {
			c.k.Preempt(p)
		}
	}

	// Move selected gangs' queued processes into the activation.
	for step := 0; step < len(order); step++ {
		app := order[(c.rot+step)%len(order)]
		if !selected[app] {
			continue
		}
		g := c.gangs.byApp[app]
		for g.Len() > 0 {
			c.active.Push(g.Pop())
		}
	}
	c.k.kickIdle()
}

// PickNext implements Policy: serve the activation first, then backfill
// leftover processors with any other runnable process in rotation order
// ("fragments"), keeping the machine busy.
func (c *Cosched) PickNext(cpu int) *Process {
	if p := c.active.Pop(); p != nil {
		return p
	}
	order := c.gangs.order
	for step := 0; step < len(order); step++ {
		app := order[(c.rot+step)%len(order)]
		if p := c.gangs.byApp[app].Pop(); p != nil {
			return p
		}
	}
	return nil
}

// QuantumFor implements Policy: twice the slice, so rotation — not the
// per-process quantum — is the normal preemption mechanism.
func (c *Cosched) QuantumFor(p *Process) sim.Duration { return 2 * c.k.cfg.Quantum }
