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
		c.RegisterWeighted(members[i], 1)
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
// re-registrations, unregistrations, external-load changes and plain
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
				case op < 9: // never above the processors beyond one per name
					c.SetExternalLoad(rng.Intn(len(names) + 1))
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
		rm := m.Handle.(*remoteMember)
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
	if available := core.Available(c.capacity(), c.ExternalLoad()); sum > available {
		t.Errorf("targets sum to %d, above the %d available", sum, available)
	}
	if m := c.Snapshot().Get("coordinator_targets_sum"); m == nil || m.Value != int64(sum) {
		t.Errorf("coordinator_targets_sum = %+v, the members hold %d", m, sum)
	}
	if n := c.OpenEpochs(); n != 0 {
		t.Errorf("%d epochs open after every member acked epoch %d", n, last)
	}
	newest := make(map[string]uint64)
	for _, ev := range c.rec.Snapshot(0) {
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
	c.RegisterWeighted(&fakeMember{name: "solo", workers: 8}, 1)
	if got := c.Targets()["solo"]; got != 8 {
		t.Fatalf("Targets()[solo] = %d, want 8", got)
	}
	c.RegisterWeighted(&fakeMember{name: "solo", workers: 3}, 1)
	var last flight.Event
	for _, ev := range c.rec.Snapshot(0) {
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
