package kernel

import (
	"fmt"

	"procctl/internal/sim"
)

// Fault injection: crash and stall primitives used by
// internal/faultinject to model misbehaving applications. Both are
// engine-side operations — they must be called from simulation setup
// code or event callbacks, never from inside a process body (a body
// crashes itself by returning).
//
// Semantics of a crash: the process disappears at the current instant.
// Spinlocks it holds are force-released and handed to the next running
// waiter (the simulation analogue of robust-lock EOWNERDEAD recovery;
// without it a single crash mid-critical-section would spin every peer
// forever and no control policy could be evaluated past the fault).
// The forced releases are counted, per lock and kernel-wide, so
// experiments can report how often recovery machinery fired.

// Kill crashes p at the current instant, whatever it is doing: running,
// runnable, blocked on a wait queue, sleeping on a timer, spinning on a
// lock, or holding locks. It reports whether p was alive to kill.
//
// A Running or Blocked process is torn down immediately. A Runnable
// process is marked dead and reaped when the scheduler next considers
// it (the queue husk keeps the Policy interface oblivious to faults);
// from CountByApp's and the metrics gauges' point of view it stops
// counting as runnable at the kill instant.
func (k *Kernel) Kill(p *Process) bool {
	if p == nil || p.killed || p.state == Exited {
		return false
	}
	now := k.eng.Now()
	p.killed = true
	k.met.kills.Inc()

	// Account an in-progress spin episode and leave the waiter list.
	if p.waitingLock != nil {
		if p.state == Running && p.active {
			p.Stats.SpinTime += now.Sub(p.spinStart)
			k.met.spinMicros.Add(int64(now.Sub(p.spinStart)))
		}
		p.waitingLock.removeWaiter(p)
		p.waitingLock = nil
	}
	k.forceReleaseLocks(p)

	switch p.state {
	case Running:
		k.unrun(p, Exited) // accounts CPU time, bumps epoch, refills the CPU
		k.finishKill(p)
	case Blocked:
		if p.sleepQ != nil {
			p.sleepQ.remove(p)
			p.sleepQ = nil
		}
		if p.sleepEv.Valid() {
			k.eng.Cancel(p.sleepEv) // remove the pending timer wakeup
			p.sleepEv = sim.EventID{}
		}
		p.epoch++ // invalidate pending unstall events
		k.setState(p, Exited)
		k.finishKill(p)
	case Runnable:
		// Still in a policy queue; reaped at the next PickNext (or by
		// Shutdown if the run ends first). Nothing else to do now: the
		// locks are already released and the state gauges skip it.
	}
	return true
}

// KillApp crashes every live process of app and returns how many it
// killed — the "application dies" fault.
func (k *Kernel) KillApp(app AppID) int {
	n := 0
	for _, p := range k.procs {
		if p.app == app && k.Kill(p) {
			n++
		}
	}
	return n
}

// Stall freezes p for d of virtual time — the "hung process" fault: the
// process stops making progress but does not exit, so it keeps its
// registrations and its memory. A Running process is descheduled on the
// spot (folding compute progress exactly like a preemption); a Runnable
// one is frozen when the scheduler next picks it. It reports whether
// the stall was applied.
func (k *Kernel) Stall(p *Process, d sim.Duration) bool {
	if p == nil || d <= 0 || p.killed || p.state == Exited || p.state == Blocked {
		return false
	}
	now := k.eng.Now()
	k.met.stalls.Inc()
	until := now.Add(d)
	if p.stallUntil < until {
		p.stallUntil = until
	}
	if p.state != Running {
		return true // frozen at next dispatch, in dispatch's pick loop
	}
	// Mirror Preempt's accounting, but park in Blocked instead of
	// requeueing.
	if p.computing {
		ran := now.Sub(p.computeStart)
		p.computeLeft -= ran
		if p.computeLeft < 0 {
			p.computeLeft = 0
		}
		p.computing = false
	}
	if p.waitingLock != nil && p.active {
		p.Stats.SpinTime += now.Sub(p.spinStart)
		k.met.spinMicros.Add(int64(now.Sub(p.spinStart)))
	}
	p.Stats.Preemptions++
	k.met.preemptions.Inc()
	k.unrun(p, Blocked)
	k.scheduleUnstall(p)
	return true
}

// scheduleUnstall arranges for a stalled (Blocked) process to become
// runnable again at p.stallUntil.
func (k *Kernel) scheduleUnstall(p *Process) {
	epoch := p.epoch
	k.eng.Schedule(p.stallUntil, func() {
		if p.epoch != epoch || p.state != Blocked || p.killed {
			return
		}
		k.setState(p, Runnable)
		k.pol.Enqueue(p)
		k.kickIdle()
	})
}

// stallPicked parks a process the scheduler picked while its stall is
// still pending. Called from dispatch's pick loop; p just left the
// policy queue in Runnable state.
func (k *Kernel) stallPicked(p *Process) {
	k.setState(p, Blocked)
	k.scheduleUnstall(p)
}

// forceReleaseLocks releases every spinlock p holds, innermost first,
// handing each to its next running waiter.
func (k *Kernel) forceReleaseLocks(p *Process) {
	for len(p.held) > 0 {
		l := p.held[len(p.held)-1]
		if l.holder != p {
			panic(fmt.Sprintf("kernel: %v force-releasing %q held by %v", p, l.name, l.holder))
		}
		k.releaseLock(l, p, true)
	}
}

// reap finishes the kill of a Runnable husk the scheduler just picked.
func (k *Kernel) reap(p *Process) {
	p.epoch++
	k.setState(p, Exited)
	k.finishKill(p)
}

// finishKill performs the parts of process teardown shared by every
// kill path. The process is already Exited.
func (k *Kernel) finishKill(p *Process) {
	for _, c := range k.cpus {
		c.hw.Evict(p.footprint())
	}
	k.nlive--
	k.pol.OnExit(p)
	if k.OnExit != nil {
		k.OnExit(p)
	}
	p.env.unwind()
}

// Killed reports whether the process was crashed by fault injection.
func (p *Process) Killed() bool { return p.killed }
