package coordinator

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"procctl/internal/core"
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

// TestConcurrentChurnSettlesOnRegistry runs registrations, same-name
// re-registrations, unregistrations, capacity changes and plain
// rebalances from several goroutines at once, inline (run it under
// -race). Whatever the interleaving, a
// decision takes its epoch, makes its moves and opens its epoch in one
// critical section, so when the callers have all returned the last
// epoch's fan-out has reached exactly the final membership: every member
// holds the registry's target for it, stamped with that epoch; the
// targets fit the capacity and the members' process counts; acking what
// each member holds leaves no epoch open; and the flight ring's target
// events of any one name are in epoch order.
func TestConcurrentChurnSettlesOnRegistry(t *testing.T) {
	names := make([]string, 48)
	for i := range names {
		names[i] = fmt.Sprintf("p-%03d", i)
	}

	// Never fewer processors than names: the one-process floor cannot
	// push Σ targets above what there is to hand out.
	c := New(2 * len(names))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				name := names[rng.Intn(len(names))]
				switch op := rng.Intn(10); {
				case op < 5: // new, or present and replaced
					m := &remoteMember{name: name, procs: 1 + rng.Intn(16)}
					m.SetTargetEpoch(m.procs, 0)
					c.RegisterWeighted(m, 1+rng.Intn(4))
				case op < 8: // known or not
					c.Unregister(name)
				case op < 9:
					if err := c.SetCapacity(len(names) + rng.Intn(len(names))); err != nil {
						t.Error(err)
					}
				default:
					c.Rebalance()
				}
			}
		}(int64(g))
	}
	wg.Wait()

	last := uint64(c.Rebalances())
	members := c.members()
	if len(members) == 0 {
		t.Fatal("the churn left nobody registered")
	}
	sum := 0
	for _, m := range members {
		rm := m.Handle.(*entry).m.(*remoteMember)
		target, epoch := rm.targetEpoch()
		if !m.HasTarget || target != m.Target || epoch != last {
			t.Errorf("%s holds target %d of epoch %d; the registry decided %d (%v), the last epoch is %d",
				m.Key, target, epoch, m.Target, m.HasTarget, last)
		}
		if m.Target > rm.procs {
			t.Errorf("%s: target %d above its %d processes", m.Key, m.Target, rm.procs)
		}
		sum += m.Target
		c.AckApplied(m.Key, epoch, time.Now().UnixMicro())
	}
	if available := core.Available(c.Capacity(), c.ExternalLoad()); sum > available {
		t.Errorf("targets sum to %d, above the %d available", sum, available)
	}
	if m := c.Snapshot().Get("coordinator_targets_sum"); m == nil || m.Value != int64(sum) {
		t.Errorf("coordinator_targets_sum = %+v, the members hold %d", m, sum)
	}
	if n := c.OpenEpochs(); n != 0 {
		t.Errorf("%d epochs open after every member acked epoch %d", n, last)
	}
	newest := make(map[string]uint64)
	for _, ev := range c.Events(0) {
		if ev.Kind != flight.KindTarget {
			continue
		}
		if ev.Epoch < newest[ev.App] {
			t.Errorf("%s: target event of epoch %d after one of epoch %d: %+v", ev.App, ev.Epoch, newest[ev.App], ev)
		}
		newest[ev.App] = ev.Epoch
	}
}

// A same-name re-registration starts from the target the name was last
// decided: the next target record still journals the change from it.
func TestReRegisterInheritsLastPushed(t *testing.T) {
	c := New(8)
	c.Register(&fakeMember{name: "solo", workers: 8})
	if got := c.Targets()["solo"]; got != 8 {
		t.Fatalf("Targets()[solo] = %d, want 8", got)
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
