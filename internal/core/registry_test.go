package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// modelRegistry is the registry the obvious way: one slice in
// registration order, every lookup a scan, every removal a splice.
type modelRegistry struct {
	members []Member[string]
}

func (m *modelRegistry) find(key string) int {
	return slices.IndexFunc(m.members, func(x Member[string]) bool { return x.Key == key })
}

func (m *modelRegistry) register(key string, procs, weight int, now int64) {
	n := Member[string]{Key: key, Procs: procs, Weight: weight, LastSeen: now}
	if i := m.find(key); i >= 0 {
		n.Target, n.HasTarget = m.members[i].Target, m.members[i].HasTarget
		m.members = slices.Delete(m.members, i, i+1)
	}
	m.members = append(m.members, n)
}

func (m *modelRegistry) expire(now, lease int64) []string {
	var out []string
	if lease <= 0 {
		return out
	}
	m.members = slices.DeleteFunc(m.members, func(x Member[string]) bool {
		if now-x.LastSeen > lease {
			out = append(out, x.Key)
			return true
		}
		return false
	})
	return out
}

// sameMembers compares what callers can see of two member lists.
func sameMembers(got, want []Member[string]) bool {
	return slices.EqualFunc(got, want, func(a, b Member[string]) bool {
		return a.Key == b.Key && a.Procs == b.Procs && a.Weight == b.Weight &&
			a.Target == b.Target && a.HasTarget == b.HasTarget && a.LastSeen == b.LastSeen
	})
}

// TestRegistryMatchesModel drives seeded random transition sequences
// through the Registry and the splice-and-scan model. After every step
// the two hold the same members in the same order — registration order,
// a re-registered member at the back with its target kept — and each
// transition reported what the model says it should: Expire exactly the
// members silent for longer than the lease, in order, and nobody when
// the lease is not positive; Decide a member iff its target moved or it
// never had one; Reseat key order, and the same order when repeated.
func TestRegistryMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := 1 + rng.Intn(40)
		key := func() string { return fmt.Sprintf("m%02d", rng.Intn(names)) }
		r := NewRegistry[string](1 + rng.Intn(32))
		var m modelRegistry
		var now int64
		for step := 0; step < 400; step++ {
			now += int64(rng.Intn(5))
			what := ""
			switch op := rng.Intn(12); {
			case op < 4:
				k, procs, weight := key(), rng.Intn(9), rng.Intn(4)-1
				what = fmt.Sprintf("Register(%s, %d, %d)", k, procs, weight)
				r.Register(k, procs, weight, now)
				m.register(k, procs, weight, now)
			case op < 6:
				k := key()
				what = fmt.Sprintf("Remove(%s)", k)
				got, ok := r.Remove(k)
				i := m.find(k)
				if ok != (i >= 0) || (ok && !sameMembers([]Member[string]{got}, m.members[i:i+1])) {
					t.Fatalf("seed %d step %d: %s = %+v, %v; model has it at %d", seed, step, what, got, ok, i)
				}
				if i >= 0 {
					m.members = slices.Delete(m.members, i, i+1)
				}
			case op < 7:
				k := key()
				what = fmt.Sprintf("Touch(%s)", k)
				i := m.find(k)
				if r.Touch(k, now) != (i >= 0) {
					t.Fatalf("seed %d step %d: %s disagrees with the model (at %d)", seed, step, what, i)
				}
				if i >= 0 {
					m.members[i].LastSeen = now
				}
			case op < 8:
				lease := int64(rng.Intn(30) - 5)
				what = fmt.Sprintf("Expire(%d, %d)", now, lease)
				got, want := r.Expire(now, lease), m.expire(now, lease)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: %s = %v, want %v", seed, step, what, got, want)
				}
			case op < 9:
				what = "Reseat()"
				r.Reseat()
				slices.SortFunc(m.members, func(a, b Member[string]) int { return strings.Compare(a.Key, b.Key) })
				again := r.Members()
				r.Reseat()
				if !sameMembers(r.Members(), again) {
					t.Fatalf("seed %d step %d: a second Reseat changed the order", seed, step)
				}
			case op < 10:
				k, target := key(), rng.Intn(9)
				what = fmt.Sprintf("SetTarget(%s, %d)", k, target)
				prev, moved := r.SetTarget(k, target)
				i := m.find(k)
				wantPrev, wantMoved := 0, false
				if i >= 0 {
					wantPrev, wantMoved = m.members[i].Target, !m.members[i].HasTarget || m.members[i].Target != target
					m.members[i].Target, m.members[i].HasTarget = target, true
				}
				if prev != wantPrev || moved != wantMoved {
					t.Fatalf("seed %d step %d: %s = %d, %v; want %d, %v", seed, step, what, prev, moved, wantPrev, wantMoved)
				}
			default:
				r.Capacity, r.External = 1+rng.Intn(32), rng.Intn(4)
				uncontrolled := rng.Intn(4)
				what = fmt.Sprintf("Decide(%d) over capacity %d, external %d", uncontrolled, r.Capacity, r.External)
				demands := make([]Demand, len(m.members))
				for i, x := range m.members {
					demands[i] = Demand{Max: x.Procs, Weight: x.Weight}
				}
				alloc := Allocate(Available(r.Capacity, uncontrolled+r.External), demands)
				var want []Move[string]
				for i := range m.members {
					x := &m.members[i]
					if !x.HasTarget || x.Target != alloc[i] {
						want = append(want, Move[string]{Key: x.Key, Target: alloc[i], Prev: x.Target})
					}
					x.Target, x.HasTarget = alloc[i], true
				}
				decisions := r.Decisions
				if got := r.Decide(uncontrolled, nil); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: %s moved %v, want %v", seed, step, what, got, want)
				}
				if r.Decisions != decisions+1 {
					t.Fatalf("seed %d step %d: Decide took the count from %d to %d", seed, step, decisions, r.Decisions)
				}
			}
			if got := r.Members(); !sameMembers(got, m.members) || r.Len() != len(m.members) {
				t.Fatalf("seed %d step %d: after %s\n got %+v\nwant %+v", seed, step, what, got, m.members)
			}
			k := key()
			got, ok := r.Get(k)
			if i := m.find(k); ok != (i >= 0) || (ok && !sameMembers([]Member[string]{got}, m.members[i:i+1])) {
				t.Fatalf("seed %d step %d: after %s Get(%s) = %+v, %v; model has it at %d", seed, step, what, k, got, ok, i)
			}
		}
	}
}

// TestRegistryDecideUsesLiveCount: the cap Decide divides under is what
// maxOf reports, not the registered count, and maxOf sees the member with
// the handle its caller hung on it, as does whoever reads the moves —
// through a re-registration's move to the back and a compaction, in
// Visit's order.
func TestRegistryDecideUsesLiveCount(t *testing.T) {
	r := NewRegistry[int](16)
	live := 3
	r.Register(1, 16, 0, 0).Handle = &live
	r.Register(2, 16, 0, 0)
	maxOf := func(m *Member[int]) int {
		if n, ok := m.Handle.(*int); ok {
			return *n
		}
		return m.Procs
	}
	want := []Move[int]{{Key: 1, Target: 3, Handle: &live}, {Key: 2, Target: 13}}
	if moved := r.Decide(0, maxOf); !slices.Equal(moved, want) {
		t.Fatalf("moved %v, want %v", moved, want)
	}

	for key := 3; key < 40; key++ { // enough departures to squeeze the slots
		r.Register(key, 1, 0, 0)
		r.Remove(key)
	}
	r.Register(2, 16, 0, 0) // to the back, its handle replaced by none
	r.Visit(func(m *Member[int]) {
		if m.Key == 2 {
			m.Handle = &live
		}
	})
	live = 5
	var order []int
	r.Visit(func(m *Member[int]) { order = append(order, m.Key) })
	want = []Move[int]{{Key: 1, Target: 5, Prev: 3, Handle: &live}, {Key: 2, Target: 5, Prev: 13, Handle: &live}}
	if moved := r.Decide(0, maxOf); !slices.Equal(moved, want) || !slices.Equal(order, []int{1, 2}) {
		t.Fatalf("moved %v in order %v, want %v in order [1 2]", moved, order, want)
	}
}

// TestRegistryDecideAllocatesNothing: a decision over a settled fleet —
// its buffers grown, targets moving or not — costs no allocation, and
// neither do the lookups, a Visit or an Expire that finds nobody.
func TestRegistryDecideAllocatesNothing(t *testing.T) {
	r := NewRegistry[string](64)
	for i := 0; i < 200; i++ {
		r.Register(fmt.Sprintf("m%03d", i), 1+i%8, 1+i%3, 0)
	}
	r.Decide(0, nil)
	i, sum := 0, 0
	if avg := testing.AllocsPerRun(200, func() {
		i++
		r.Capacity = 64 + 64*(i%2) // every other decision moves most targets
		r.Decide(i%3, nil)
		r.Visit(func(m *Member[string]) { sum += m.Target })
		r.Touch("m007", int64(i))
		r.SetTarget("m008", i%5)
		r.Expire(int64(i), 1<<40)
	}); avg != 0 {
		t.Errorf("steady-state Decide allocates %.1f times per call, want 0", avg)
	}
}

// TestRegistryChurnStaysCompact: a fleet that re-registers forever keeps
// its slot array proportional to the members it has.
func TestRegistryChurnStaysCompact(t *testing.T) {
	r := NewRegistry[int](8)
	for i := 0; i < 100000; i++ {
		r.Register(i%50, 4, 1, int64(i))
	}
	if r.Len() != 50 || len(r.slots) > 2*50+8 {
		t.Errorf("%d members in %d slots after 100k re-registrations", r.Len(), len(r.slots))
	}
}
