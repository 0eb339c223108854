// Package ctrl simulates the paper's centralized user-level server
// (Section 5). The server periodically obtains the list of runnable
// processes from the kernel (the paper uses a UMAX system call; here the
// scan reads simulator state directly), subtracts the processors
// consumed by uncontrollable processes, and divides the remainder fairly
// among the registered applications. Applications poll for their target
// at their own (slower) interval, so the staleness behaviour the paper
// reports — the few seconds of delay in Figure 5 — is reproduced.
//
// Membership, registration order, leases, targets and the division
// itself are core.Registry; Server adds the kernel-scan adapter (live
// process counts, uncontrollable load, partition sizes), the virtual
// clock, and a trace annotation for every target it decides, caused by
// the scan that decided it. The package also
// holds the replay audit of a live daemon's journal (DiffJournal), which
// runs the same Registry over journal records and needs no simulator,
// and the decentralized controller the paper rejected.
package ctrl

import (
	"procctl/internal/core"
	"procctl/internal/kernel"
	"procctl/internal/metrics"
	"procctl/internal/sim"
)

// DefaultScanInterval is how often the server recomputes targets. The
// paper does not give its server interval; it must only be comfortably
// below the applications' 6 s poll interval.
const DefaultScanInterval = sim.Second

// DefaultLease is how long a registered application may go without
// talking to the server (Register or Poll) before it is presumed dead
// and its capacity is reclaimed: three missed polls at the paper's 6 s
// poll interval.
const DefaultLease = 18 * sim.Second

// PartitionSizer is implemented by scheduling policies that dedicate a
// processor partition to each application (kernel.Partition). When the
// kernel runs such a policy, the server aligns each application's target
// with its partition size instead of the global equipartition — the
// paper's Section 7 integration of process control with processor
// partitioning.
type PartitionSizer interface {
	CPUsOf(app kernel.AppID) int
}

// Server is the simulated central server.
type Server struct {
	k *kernel.Kernel

	// reg holds membership, registration order, leases and targets;
	// the server adds what only a kernel can tell it: which processes
	// are alive, and how much of the machine nobody registered for.
	reg   *core.Registry[kernel.AppID]
	lease sim.Duration

	// Stats.
	Scans         int64
	PollsServed   int64
	LeaseExpiries int64

	scans    *metrics.Counter
	polls    *metrics.Counter
	expiries *metrics.Counter
}

// NewServer creates the server and installs its periodic scan on the
// kernel's engine. A non-positive interval selects DefaultScanInterval.
func NewServer(k *kernel.Kernel, interval sim.Duration) *Server {
	if interval <= 0 {
		interval = DefaultScanInterval
	}
	s := &Server{
		k:        k,
		reg:      core.NewRegistry[kernel.AppID](k.NumCPU()),
		lease:    DefaultLease,
		scans:    k.Metrics().Counter("sim_ctrl_scans_total", "central-server target recomputations"),
		polls:    k.Metrics().Counter("sim_ctrl_polls_total", "application polls served"),
		expiries: k.Metrics().Counter("sim_ctrl_lease_expiries_total", "applications unregistered because their lease lapsed"),
	}
	k.Engine().Every(interval, func() bool {
		s.Scan()
		return true
	})
	return s
}

// SetLease changes how long an application may stay silent before the
// server reclaims its allocation. Non-positive disables expiry.
func (s *Server) SetLease(d sim.Duration) { s.lease = d }

// Lease returns the current lease duration.
func (s *Server) Lease() sim.Duration { return s.lease }

// Register implements threads.Controller: a new controllable
// application announces itself and its process count.
func (s *Server) Register(id kernel.AppID, procs int) {
	s.RegisterWeighted(id, procs, 0)
}

// RegisterWeighted is Register with an explicit fair-share weight
// (non-positive means 1, matching core.Demand).
func (s *Server) RegisterWeighted(id kernel.AppID, procs, weight int) {
	s.reg.Register(id, procs, weight, s.now())
	s.setTarget(id, procs) // until the first scan, let it run everything
	s.Scan()               // the paper's server reacts to creation promptly
}

// Unregister implements threads.Controller.
func (s *Server) Unregister(id kernel.AppID) {
	s.reg.Remove(id)
	s.Scan() // freed processors are redistributed promptly
}

// Poll implements threads.Controller: renew the application's lease and
// return its current target. An application the server does not know
// but whose processes are alive — its lease lapsed while it was stalled,
// or its polls were lost — is registered again with the processes it
// still has, the way a procctld client answers "not registered", and
// gets the fresh target; one with no processes left gets 0.
func (s *Server) Poll(id kernel.AppID) int {
	s.PollsServed++
	s.polls.Inc()
	if !s.reg.Touch(id, s.now()) {
		live := liveProcs(s.k, id)
		if live == 0 {
			return 0
		}
		s.Register(id, live)
	}
	return s.Target(id)
}

// Target exposes the current target for tests and traces.
func (s *Server) Target(id kernel.AppID) int {
	m, _ := s.reg.Get(id)
	return m.Target
}

func (s *Server) now() int64 { return int64(s.k.Engine().Now()) }

// Registered returns the number of registered applications.
func (s *Server) Registered() int { return s.reg.Len() }

// Scan recomputes every application's target from current kernel state.
// It runs periodically but is exported so tests can force a recompute.
func (s *Server) Scan() {
	s.Scans++
	s.scans.Inc()
	s.expireLeases()
	members := s.reg.Members()
	if sizer, ok := s.k.Policy().(PartitionSizer); ok {
		for _, m := range members {
			t, limit := sizer.CPUsOf(m.Key), s.liveCap(&m)
			if t == 0 {
				// The partition has not materialized yet (the
				// application registered before its processes were
				// scheduled); do not throttle on stale data.
				t = limit
			}
			s.setTarget(m.Key, max(min(t, limit), 1))
		}
	} else {
		// Runnable processes of parallel applications that never
		// registered count as uncontrollable load too.
		perApp, uncontrolled := s.k.CountByApp()
		for _, m := range members {
			delete(perApp, m.Key)
		}
		for _, n := range perApp {
			uncontrolled += n
		}
		for _, mv := range s.reg.Decide(uncontrolled, s.liveCap) {
			s.announce(mv.Key, mv.Target)
		}
	}
}

// setTarget records a target the server set outside the fair division
// (a registration's let-it-run-everything, a partition's size) and
// announces it if it moved.
func (s *Server) setTarget(app kernel.AppID, t int) {
	if _, moved := s.reg.SetTarget(app, t); moved {
		s.announce(app, t)
	}
}

// announce stamps a moved target into the trace stream as a
// target-decision annotation with the scan number as the causal
// reference — the sim analogue of the daemon's rebalance-epoch
// provenance.
func (s *Server) announce(app kernel.AppID, t int) {
	s.k.Annotate(kernel.Annotation{
		Layer:  "ctrl",
		Kind:   "target",
		App:    app,
		Task:   -1,
		Target: t,
		Cause:  s.Scans,
	})
}

// expireLeases unregisters applications that have not polled within the
// lease. A crashed application stops polling, so without this its
// (empty) demand would keep pinning processors: liveProcs falls to zero
// and the registered-count fallback would hold its old allocation
// forever. Expired apps lose their entry entirely; survivors absorb the
// freed capacity in the caller's recompute.
func (s *Server) expireLeases() {
	expired := s.reg.Expire(s.now(), int64(s.lease))
	s.LeaseExpiries += int64(len(expired))
	s.expiries.Add(int64(len(expired)))
}

// liveCap is the cap on an application's target: the processes it still
// has (exited workers no longer count), or the count it registered with
// while none has been spawned yet.
func (s *Server) liveCap(m *core.Member[kernel.AppID]) int {
	if n := liveProcs(s.k, m.Key); n > 0 {
		return n
	}
	return m.Procs
}

// liveProcs counts an application's non-exited processes (runnable,
// running, or suspended).
func liveProcs(k *kernel.Kernel, app kernel.AppID) int {
	n := 0
	for _, p := range k.Processes() {
		if p.App() == app && p.State() != kernel.Exited {
			n++
		}
	}
	return n
}
