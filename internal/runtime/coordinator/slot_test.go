package coordinator

import (
	"fmt"
	"testing"
	"time"

	"procctl/internal/flight"
)

// remoteFleet registers n socket-style members of 16 processes each,
// inline, and acks every epoch that left open.
func remoteFleet(t *testing.T, c *Coordinator, n int) []*remoteMember {
	t.Helper()
	members := make([]*remoteMember, n)
	for i := range members {
		members[i] = &remoteMember{name: fmt.Sprintf("app-%02d", i), procs: 16}
		members[i].SetTargetEpoch(16, 0)
		c.Register(members[i])
	}
	ackAll(c, members)
	if n := c.OpenEpochs(); n != 0 {
		t.Fatalf("%d epochs open after every member acked what it holds", n)
	}
	return members
}

// ackAll acknowledges, for every member, the epoch of the target it
// holds — what a poll carrying the client's applied epoch does.
func ackAll(c *Coordinator, members []*remoteMember) {
	for _, m := range members {
		_, epoch := m.targetEpoch()
		c.AckApplied(m.name, epoch, time.Now().UnixMicro())
	}
}

// Two inline rebalances from two connections: the one that snapshotted
// first may reach its fan-out second. It must not put anybody back on
// its older targets (ROADMAP 3e: Σ targets 8002 of 8000, or an epoch no
// ack can close).
func TestNotifyNewestEpochWins(t *testing.T) {
	c := New(64)
	members := remoteFleet(t, c, 8)

	s1 := c.snapshotNext() // decides on capacity 64: 8 each
	c.mu.Lock()
	c.capacity = 16
	c.mu.Unlock()
	s2 := c.snapshotNext() // decides on capacity 16: 2 each
	e1, e2 := s1.epoch, s2.epoch
	c.notify(s2, time.Now())
	c.notify(s1, time.Now())

	sum := 0
	for _, m := range members {
		target, epoch := m.targetEpoch()
		if target != 2 || epoch != e2 {
			t.Errorf("%s holds target %d of epoch %d, want 2 of epoch %d", m.name, target, epoch, e2)
		}
		sum += target
		if pushed, ok := c.LastPushed(m.name); !ok || pushed != target {
			t.Errorf("%s: LastPushed = %d (%v), the member holds %d", m.name, pushed, ok, target)
		}
	}
	if sum > 16 {
		t.Errorf("targets sum to %d, above the capacity of 16", sum)
	}
	ackAll(c, members)
	if n := c.OpenEpochs(); n != 0 {
		t.Errorf("%d epochs open after every member acked epoch %d", n, e2)
	}
	for _, ev := range c.Events(0) {
		if ev.Kind == flight.KindTarget && ev.Epoch == e1 {
			t.Errorf("overtaken epoch %d recorded a target change: %+v", e1, ev)
		}
	}
}

// A member that unregisters between a rebalance's snapshot and its
// push decision gets no push, no target record and no place in the
// epoch; its push state goes with its slot.
func TestNotifySkipsDepartedSlot(t *testing.T) {
	c := New(64)
	members := remoteFleet(t, c, 4)
	gone := members[3]

	c.mu.Lock()
	c.capacity = 8 // so that the snapshot below wants to re-target everyone
	c.mu.Unlock()
	snap := c.snapshotNext()
	epoch := snap.epoch
	c.Unregister(gone.name) // rebalances the other three under a newer epoch
	held, heldEpoch := gone.targetEpoch()
	c.notify(snap, time.Now())

	if target, e := gone.targetEpoch(); target != held || e != heldEpoch {
		t.Errorf("departed member was pushed %d (epoch %d) after it left", target, e)
	}
	if _, ok := c.LastPushed(gone.name); ok {
		t.Error("departed member still has a last pushed target")
	}
	for _, ev := range c.Events(0) {
		if ev.Kind == flight.KindTarget && ev.Epoch == epoch {
			t.Errorf("overtaken epoch %d recorded a target change: %+v", epoch, ev)
		}
	}
	ackAll(c, members[:3])
	if n := c.OpenEpochs(); n != 0 {
		t.Errorf("%d epochs open after the remaining members acked", n)
	}
	if m := c.Snapshot().Get("coordinator_targets_sum"); m == nil || m.Value != 8 {
		t.Errorf("coordinator_targets_sum = %+v, want the 8 processors the three members hold", m)
	}
}

// A same-name re-registration starts from the old slot's last pushed
// target: the next target record still journals the change from it.
func TestReRegisterInheritsLastPushed(t *testing.T) {
	c := New(8)
	c.Register(&fakeMember{name: "solo", workers: 8})
	if pushed, ok := c.LastPushed("solo"); !ok || pushed != 8 {
		t.Fatalf("LastPushed = %d (%v), want 8", pushed, ok)
	}
	c.Register(&fakeMember{name: "solo", workers: 3})
	var last flight.Event
	for _, ev := range c.Events(0) {
		if ev.Kind == flight.KindTarget {
			last = ev
		}
	}
	if last.App != "solo" || last.A != 3 || last.B != 8 {
		t.Errorf("target record after re-registration = %+v, want solo 8 -> 3", last)
	}
}

// A socket member keeps the newest epoch's target however the pushes
// arrive; the placeholder epoch 0 always stores.
func TestRemoteMemberRefusesOlderEpoch(t *testing.T) {
	m := &remoteMember{name: "r", procs: 8}
	m.SetTargetEpoch(8, 0)
	m.SetTargetEpoch(4, 7)
	m.SetTargetEpoch(6, 5)
	if target, epoch := m.targetEpoch(); target != 4 || epoch != 7 {
		t.Errorf("holds %d of epoch %d after an older push, want 4 of epoch 7", target, epoch)
	}
	m.SetTargetEpoch(3, 7)
	m.SetTargetEpoch(2, 9)
	if target, epoch := m.targetEpoch(); target != 2 || epoch != 9 {
		t.Errorf("holds %d of epoch %d, want 2 of epoch 9", target, epoch)
	}
	m.SetTarget(5)
	if target, epoch := m.targetEpoch(); target != 5 || epoch != 0 {
		t.Errorf("holds %d of epoch %d after a plain SetTarget, want 5 of epoch 0", target, epoch)
	}
}

// Member names never become label values (ROADMAP 3c′): the registry
// has the same series whatever the fleet's size, through registration,
// polling, lease expiry and unregistration.
func TestMetricsSeriesIndependentOfFleetSize(t *testing.T) {
	small, large := seriesThroughLifecycle(t, 20), seriesThroughLifecycle(t, 2000)
	for i, phase := range []string{"registered and polled", "lease expired", "re-registered", "unregistered"} {
		if small[i] != large[i] {
			t.Errorf("%s: %d series with 20 members, %d with 2000", phase, small[i], large[i])
		}
	}
}

// seriesThroughLifecycle runs a fleet of n members through a daemon and
// returns the registry's series count after each phase.
func seriesThroughLifecycle(t *testing.T, n int) (counts [4]int) {
	t.Helper()
	cfg := ServerConfig{Lease: 400 * time.Millisecond, SweepInterval: 50 * time.Millisecond}
	srv, sock := startServerWith(t, 4*n, cfg)
	// Batched, as a daemon serving a fleet runs: the subject is the
	// registry, not two thousand inline rebalances.
	t.Cleanup(srv.coord.StartBatching(time.Millisecond))
	series := func() int { return len(srv.coord.Snapshot().Metrics) }
	name := func(i int) string { return fmt.Sprintf("app-%04d", i) }
	register := func() *Client {
		cl, err := Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		for i := 0; i < n; i++ {
			if _, err := cl.Register(name(i), 4); err != nil {
				t.Fatal(err)
			}
		}
		return cl
	}

	cl := register()
	for i := 0; i < n; i++ {
		if _, err := cl.Poll(name(i)); err != nil {
			t.Fatal(err)
		}
	}
	counts[0] = series()

	// Silence: the lease lapses and the sweep drops the whole connection.
	waitFor(t, 10*time.Second, func() bool { return len(srv.coord.Members()) == 0 }, "silent fleet never expired")
	counts[1] = series()

	cl = register()
	counts[2] = series()
	for i := 0; i < n; i++ {
		if err := cl.Unregister(name(i)); err != nil {
			t.Fatal(err)
		}
	}
	counts[3] = series()
	return counts
}

// Steady-state Rebalance() allocates the same small number of objects
// whatever the fleet's size: its working set is recycled, and nothing on
// the path is sized by the fleet. (The count-based form of
// "rebalance_us_m10000 <= 6x _m2000".)
func TestSteadyRebalanceAllocationsIndependentOfFleetSize(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under -race")
	}
	perRebalance := func(n int) float64 {
		c := stubFleet(n)
		c.Rebalance() // the pooled working set reaches its size
		return testing.AllocsPerRun(50, c.Rebalance)
	}
	small, large := perRebalance(1000), perRebalance(8000)
	if small != large || small > 4 {
		t.Errorf("steady Rebalance() allocates %.0f objects at 1000 members and %.0f at 8000, want the same small count", small, large)
	}
}
