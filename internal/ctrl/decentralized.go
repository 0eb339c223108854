package ctrl

import (
	"procctl/internal/kernel"
)

// Decentralized is the control variant the paper tried and rejected
// (Section 4.2): there is no server; every application decides its own
// target directly from a kernel scan at every poll. Without a registry,
// an application cannot tell which of the other runnable processes
// belong to controllable peers and which are uncontrollable load, so
// the only safe local rule is to fill the processors no one else is
// using:
//
//	target = numCPU − (runnable processes of everyone else)
//
// clamped to [1, live processes]. The consequence — measured by the
// ABL-DECENTRAL experiment — is first-arrival capture: the application
// already holding the machine keeps it, and later arrivals are squeezed
// to the floor until it exits. Fixing that requires the applications to
// identify each other and agree on shares, which is exactly the
// "expensive communication protocols" the paper says the stability
// problems demanded, and why it chose the centralized server. Each poll
// also costs a full process-table scan per application ("requires even
// more of these system calls, one for each application for each update
// interval").
type Decentralized struct {
	k *kernel.Kernel

	registered map[kernel.AppID]int

	// Damping makes the controller less aggressive: an application
	// grows toward its greedy target by at most Damping processes per
	// poll (0 = undamped, the paper's unstable case).
	Damping int

	// Stats.
	Polls int64
	Scans int64
}

// NewDecentralized returns the distributed controller for k.
func NewDecentralized(k *kernel.Kernel) *Decentralized {
	return &Decentralized{k: k, registered: make(map[kernel.AppID]int)}
}

// Register implements threads.Controller (membership only; there is no
// server state to initialize).
func (d *Decentralized) Register(id kernel.AppID, procs int) {
	d.registered[id] = procs
}

// Unregister implements threads.Controller.
func (d *Decentralized) Unregister(id kernel.AppID) {
	delete(d.registered, id)
}

// Poll implements threads.Controller: a fresh scan and a local greedy
// decision, no coordination.
func (d *Decentralized) Poll(id kernel.AppID) int {
	d.Polls++
	d.Scans++ // every poll is a full process-table scan
	perApp, uncontrolled := d.k.CountByApp()

	others := uncontrolled
	for app, n := range perApp {
		if app != id {
			others += n
		}
	}
	target := d.k.NumCPU() - others

	mine := perApp[id]
	if d.Damping > 0 && target > mine+d.Damping {
		target = mine + d.Damping
	}
	if max := liveProcs(d.k, id); target > max {
		target = max
	}
	if target < 1 {
		target = 1
	}
	return target
}

// Registered returns the number of participating applications.
func (d *Decentralized) Registered() int { return len(d.registered) }
