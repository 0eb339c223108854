package ctrl

import (
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

func newKernel(ncpu int, pol kernel.Policy) *kernel.Kernel {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: ncpu})
	return kernel.New(eng, mac, pol, kernel.Config{Quantum: 50 * sim.Millisecond, QuantumJitter: -1})
}

// spin spawns n CPU-bound processes for app.
func spin(k *kernel.Kernel, app kernel.AppID, n int, d sim.Duration) {
	for i := 0; i < n; i++ {
		k.SpawnResumable("w", app, 0, kernel.Script(kernel.Compute(d)))
	}
}

func TestServerEquipartition(t *testing.T) {
	k := newKernel(16, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, 1, 16, sim.Second)
	spin(k, 2, 16, sim.Second)
	s.Register(1, 16)
	s.Register(2, 16)
	s.Scan()
	if s.Target(1) != 8 || s.Target(2) != 8 {
		t.Errorf("targets %d/%d, want 8/8", s.Target(1), s.Target(2))
	}
}

func TestServerSubtractsUncontrolled(t *testing.T) {
	k := newKernel(16, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, kernel.AppNone, 4, sim.Second) // compilers, editors, daemons
	spin(k, 1, 16, sim.Second)
	s.Register(1, 16)
	s.Scan()
	if s.Target(1) != 12 {
		t.Errorf("target %d, want 12 (16 CPUs - 4 uncontrolled)", s.Target(1))
	}
}

func TestServerUnregisteredAppIsUncontrolled(t *testing.T) {
	k := newKernel(16, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, 1, 16, sim.Second)
	spin(k, 2, 6, sim.Second) // a parallel app that never registers
	s.Register(1, 16)
	s.Scan()
	if s.Target(1) != 10 {
		t.Errorf("target %d, want 10 (its 6 processes count as load)", s.Target(1))
	}
}

func TestServerCapsAtProcessCount(t *testing.T) {
	k := newKernel(16, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, 1, 3, sim.Second)
	s.Register(1, 3)
	s.Scan()
	if s.Target(1) != 3 {
		t.Errorf("target %d exceeds the app's 3 processes", s.Target(1))
	}
}

func TestServerStarvationFloor(t *testing.T) {
	k := newKernel(4, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, kernel.AppNone, 8, sim.Second) // machine fully loaded
	spin(k, 1, 4, sim.Second)
	s.Register(1, 4)
	s.Scan()
	if s.Target(1) != 1 {
		t.Errorf("target %d, want the floor of 1", s.Target(1))
	}
}

func TestServerUnregisterRedistributes(t *testing.T) {
	k := newKernel(16, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, 1, 16, sim.Second)
	spin(k, 2, 16, sim.Second)
	s.Register(1, 16)
	s.Register(2, 16)
	s.Scan()
	if s.Target(1) != 8 {
		t.Fatalf("initial target %d", s.Target(1))
	}
	s.Unregister(2)
	// App 2's processes are still runnable but now count as
	// uncontrolled; app 1 shares with them.
	if got := s.Target(1); got != 1 {
		// 16 CPUs - 16 uncontrolled = 0 available -> floor.
		t.Errorf("after unregister, target %d, want 1", got)
	}
	if s.Registered() != 1 {
		t.Errorf("Registered = %d", s.Registered())
	}
}

func TestServerPollUnknownApp(t *testing.T) {
	k := newKernel(4, kernel.NewTimeshare())
	s := NewServer(k, 0)
	if got := s.Poll(42); got != 0 {
		t.Errorf("Poll(unknown) = %d, want 0", got)
	}
}

func TestServerSuspendedProcsDontCount(t *testing.T) {
	// Blocked (suspended) processes of a registered app consume no
	// processors; availability is computed from runnable only.
	k := newKernel(8, kernel.NewTimeshare())
	s := NewServer(k, 0)
	q := kernel.NewWaitQueue("suspend")
	for i := 0; i < 4; i++ {
		k.SpawnResumable("s", 1, 0, kernel.Script(kernel.Sleep(q)))
	}
	spin(k, 1, 2, sim.Second)
	spin(k, 2, 8, sim.Second)
	k.Engine().Run(sim.Time(10 * sim.Millisecond)) // let sleepers block
	s.Register(1, 6)
	s.Register(2, 8)
	s.Scan()
	// All 8 CPUs available; fair share 4/4, app 1 capped at its 6 live.
	if s.Target(1) != 4 || s.Target(2) != 4 {
		t.Errorf("targets %d/%d, want 4/4", s.Target(1), s.Target(2))
	}
	k.WakeQueue(q, 4)
	k.Engine().Run(sim.Time(3 * sim.Second))
}

func TestServerPeriodicScan(t *testing.T) {
	k := newKernel(8, kernel.NewTimeshare())
	s := NewServer(k, 100*sim.Millisecond)
	spin(k, 1, 8, 2*sim.Second)
	s.Register(1, 8)
	before := s.Scans
	k.Engine().Run(sim.Time(550 * sim.Millisecond))
	if s.Scans-before < 5 {
		t.Errorf("only %d periodic scans in 550ms at 100ms interval", s.Scans-before)
	}
	k.Engine().Run(sim.Time(3 * sim.Second))
}

func TestServerPartitionAware(t *testing.T) {
	pt := kernel.NewPartition()
	pt.Interval = 10 * sim.Millisecond
	k := newKernel(8, pt)
	s := NewServer(k, 0)
	spin(k, 1, 8, sim.Second)
	spin(k, 2, 8, sim.Second)
	s.Register(1, 8)
	s.Register(2, 8)
	k.Engine().Run(sim.Time(50 * sim.Millisecond)) // let the partition settle
	s.Scan()
	if s.Target(1) != 4 || s.Target(2) != 4 {
		t.Errorf("partition-aware targets %d/%d, want 4/4", s.Target(1), s.Target(2))
	}
	k.Engine().Run(sim.Time(3 * sim.Second))
}

func TestServerPartitionNotMaterialized(t *testing.T) {
	// Registration before any process is scheduled must not throttle
	// to the floor (the feedback-spiral regression).
	pt := kernel.NewPartition()
	k := newKernel(8, pt)
	s := NewServer(k, 0)
	s.Register(1, 8) // no processes spawned yet
	if got := s.Target(1); got != 8 {
		t.Errorf("pre-materialization target %d, want 8 (no throttling on stale data)", got)
	}
}

func TestServerLeaseExpiresSilentApp(t *testing.T) {
	// App 1 crashes at 5s and goes silent; app 2 keeps polling. Within
	// one lease of the crash the server must forget app 1 and hand its
	// processors to app 2.
	k := newKernel(16, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, 1, 16, 3600*sim.Second)
	spin(k, 2, 16, 3600*sim.Second)
	s.Register(1, 16)
	s.Register(2, 16)
	if s.Target(2) != 8 {
		t.Fatalf("initial target %d, want 8", s.Target(2))
	}
	k.Engine().Every(6*sim.Second, func() bool { s.Poll(2); return true })
	k.Engine().Schedule(sim.Time(5*sim.Second), func() { k.KillApp(1) })
	// Last contact from app 1 was Register at t=0, so its lease (18s)
	// lapses at 18s — well within one lease of the 5s crash.
	k.Engine().Schedule(sim.Time(5*sim.Second+DefaultLease), func() {
		if s.Registered() != 1 {
			t.Errorf("app 1 still registered one lease after its crash")
		}
		if got := s.Target(2); got != 16 {
			t.Errorf("survivor target %d one lease after crash, want 16", got)
		}
	})
	k.Engine().Run(sim.Time(30 * sim.Second))
	if s.LeaseExpiries != 1 {
		t.Errorf("LeaseExpiries = %d, want 1", s.LeaseExpiries)
	}
	if s.Target(1) != 0 {
		t.Errorf("expired app still has target %d", s.Target(1))
	}
}

func TestServerPollRenewsLease(t *testing.T) {
	// An app that polls on schedule must never expire, however long the
	// run.
	k := newKernel(8, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, 1, 8, 3600*sim.Second)
	s.Register(1, 8)
	k.Engine().Every(6*sim.Second, func() bool { s.Poll(1); return true })
	k.Engine().Run(sim.Time(120 * sim.Second))
	if s.Registered() != 1 || s.LeaseExpiries != 0 {
		t.Errorf("polling app expired: registered=%d expiries=%d", s.Registered(), s.LeaseExpiries)
	}
}

func TestServerSetLeaseZeroDisablesExpiry(t *testing.T) {
	k := newKernel(8, kernel.NewTimeshare())
	s := NewServer(k, 0)
	s.SetLease(0)
	spin(k, 1, 8, 3600*sim.Second)
	s.Register(1, 8)
	k.Engine().Run(sim.Time(120 * sim.Second)) // silent far past DefaultLease
	if s.Registered() != 1 {
		t.Error("app expired despite lease expiry being disabled")
	}
}

func TestServerPollsServedCounter(t *testing.T) {
	k := newKernel(4, kernel.NewTimeshare())
	s := NewServer(k, 0)
	s.Register(1, 4)
	for i := 0; i < 5; i++ {
		s.Poll(1)
	}
	if s.PollsServed != 5 {
		t.Errorf("PollsServed = %d", s.PollsServed)
	}
}

func TestServerExpiryForgetsWeight(t *testing.T) {
	// App 1 registers with weight 3, goes silent past its lease, and
	// registers again without a weight: it is a new member and shares
	// equally. (The weight used to outlive the expiry.)
	k := newKernel(16, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, 1, 16, 3600*sim.Second)
	spin(k, 2, 16, 3600*sim.Second)
	s.RegisterWeighted(1, 16, 3)
	s.Register(2, 16)
	if s.Target(1) != 12 || s.Target(2) != 4 {
		t.Fatalf("weighted targets %d/%d, want 12/4", s.Target(1), s.Target(2))
	}
	k.Engine().Every(6*sim.Second, func() bool { s.Poll(2); return true })
	k.Engine().Run(sim.Time(20 * sim.Second))
	if s.LeaseExpiries != 1 || s.Registered() != 1 {
		t.Fatalf("expiries %d, registered %d: app 1 should have lapsed alone", s.LeaseExpiries, s.Registered())
	}
	s.Register(1, 16)
	if s.Target(1) != 8 || s.Target(2) != 8 {
		t.Errorf("targets after the unweighted re-registration %d/%d, want 8/8", s.Target(1), s.Target(2))
	}
}

func TestServerReadmitsLivePoller(t *testing.T) {
	// A poll from an application the server has forgotten but whose
	// processes are alive registers it again, with what it still has.
	k := newKernel(16, kernel.NewTimeshare())
	s := NewServer(k, 0)
	spin(k, 1, 16, 3600*sim.Second)
	spin(k, 2, 6, 3600*sim.Second)
	s.Register(1, 16)
	s.Register(2, 6)
	k.Engine().Every(6*sim.Second, func() bool { s.Poll(1); return true })
	k.Engine().Run(sim.Time(20 * sim.Second))
	if s.Registered() != 1 || s.Target(1) != 10 {
		t.Fatalf("registered %d, app 1 target %d: want app 2 lapsed and counted as load (16 - 6)", s.Registered(), s.Target(1))
	}
	if got := s.Poll(2); got != 6 {
		t.Errorf("Poll(2) after its lease lapsed = %d, want its 6 live processes", got)
	}
	if s.Registered() != 2 || s.Target(1) != 10 || s.Target(2) != 6 {
		t.Errorf("after re-admission: registered %d, targets %d/%d, want 2 and 10/6", s.Registered(), s.Target(1), s.Target(2))
	}
}
