package core

import (
	"cmp"
	"slices"
)

// Member is one registered application as the registry holds it.
type Member[K cmp.Ordered] struct {
	Key    K
	Procs  int // process count as registered: the cap when Decide is given no live count
	Weight int // fair-share weight as registered; below 1 reads as 1 (Demand)
	// Target is the last decided target. It is meaningful only when
	// HasTarget: a member that registered and has not been decided for
	// yet holds none, and the first decision for it is always reported.
	Target    int
	HasTarget bool
	gone      bool  // a vacated slot awaiting compaction
	LastSeen  int64 // stamp of the last Register or Touch, on the caller's clock
	// Handle is the caller's: whatever it keeps beside a member that the
	// registry cannot know. The registry stores it and never reads it.
	Handle any
}

// Move is one target a decision changed.
type Move[K cmp.Ordered] struct {
	Key    K
	Target int
	Prev   int // the target it replaces; 0 when the member never had one
	Handle any // the member's Handle, so a caller need not look it up
}

// Registry is the server's state machine: who is registered, in what
// order, with what lease and what target, and the two scalars the
// allocation starts from. It reads no clock, takes no lock, does no I/O
// and iterates no map, so the same sequence of calls always leaves the
// same state. The simulated server keys it by application id, journal
// recovery and the replay audit by member name.
//
// Members sit in registration order in one slice; a departure vacates
// its slot in place and the slice is compacted once half of it is
// vacant, so Register, Remove and the lookups cost the same at any
// fleet size.
type Registry[K cmp.Ordered] struct {
	Capacity  int   // processors to divide
	External  int   // uncontrollable load reported from outside, on top of what Decide is told
	Decisions int64 // Decide calls so far: the last decision's epoch

	slots []Member[K] // registration order, vacated slots included
	index map[K]int   // key -> position in slots, members only

	demands []Demand
	alloc   []int
	moved   []Move[K]
	expired []K
}

// NewRegistry returns an empty registry dividing capacity processors.
func NewRegistry[K cmp.Ordered](capacity int) *Registry[K] {
	return &Registry[K]{Capacity: capacity, index: make(map[K]int)}
}

// Len returns the number of registered members.
func (r *Registry[K]) Len() int { return len(r.index) }

// Get returns a copy of the named member.
func (r *Registry[K]) Get(key K) (Member[K], bool) {
	i, ok := r.index[key]
	if !ok {
		return Member[K]{}, false
	}
	return r.slots[i], true
}

// Members returns a copy of the members in registration order.
func (r *Registry[K]) Members() []Member[K] {
	out := make([]Member[K], 0, len(r.index))
	r.Visit(func(m *Member[K]) { out = append(out, *m) })
	return out
}

// Visit calls f on every member in registration order, without
// allocating. f may set the member's Handle and nothing else, and must
// not call back into the registry.
func (r *Registry[K]) Visit(f func(m *Member[K])) {
	for i := range r.slots {
		if !r.slots[i].gone {
			f(&r.slots[i])
		}
	}
}

// Register seats a member at the back of the registration order. A
// member already present moves there and keeps its target: the fleet
// goes on running what it was last told until the next decision. The
// returned member is where the caller hangs its Handle, and is valid
// until the next call.
func (r *Registry[K]) Register(key K, procs, weight int, now int64) *Member[K] {
	m := Member[K]{Key: key, Procs: procs, Weight: weight, LastSeen: now}
	if i, ok := r.index[key]; ok {
		m.Target, m.HasTarget = r.slots[i].Target, r.slots[i].HasTarget
		r.vacate(i)
	}
	r.index[key] = len(r.slots)
	r.slots = append(r.slots, m)
	r.compact()
	return &r.slots[len(r.slots)-1] // still the last after a squeeze
}

// Remove drops a member, returning what the registry held for it.
func (r *Registry[K]) Remove(key K) (Member[K], bool) {
	i, ok := r.index[key]
	if !ok {
		return Member[K]{}, false
	}
	m := r.slots[i]
	r.vacate(i)
	r.compact()
	return m, true
}

// Touch renews a member's lease; false means the key is not registered.
func (r *Registry[K]) Touch(key K, now int64) bool {
	i, ok := r.index[key]
	if ok {
		r.slots[i].LastSeen = now
	}
	return ok
}

// Expire removes every member not seen for longer than lease and
// returns their keys in registration order (valid until the next call).
// A non-positive lease never expires anyone.
func (r *Registry[K]) Expire(now, lease int64) []K {
	r.expired = r.expired[:0]
	if lease <= 0 {
		return r.expired
	}
	for i := range r.slots {
		if m := &r.slots[i]; !m.gone && now-m.LastSeen > lease {
			r.expired = append(r.expired, m.Key)
			r.vacate(i)
		}
	}
	r.compact()
	return r.expired
}

// Reseat puts the members in key order: the order a restarted server,
// which recovers them from a name-sorted snapshot, seats them in.
func (r *Registry[K]) Reseat() {
	r.squeeze()
	slices.SortFunc(r.slots, func(a, b Member[K]) int { return cmp.Compare(a.Key, b.Key) })
	for i := range r.slots {
		r.index[r.slots[i].Key] = i
	}
}

// SetTarget records a target decided outside Decide and reports the one
// it replaced and whether that is a change (a first target always is).
// An unknown key changes nothing.
func (r *Registry[K]) SetTarget(key K, target int) (prev int, moved bool) {
	i, ok := r.index[key]
	if !ok {
		return 0, false
	}
	return r.retarget(&r.slots[i], target)
}

func (r *Registry[K]) retarget(m *Member[K], target int) (prev int, moved bool) {
	prev, moved = m.Target, !m.HasTarget || m.Target != target
	m.Target, m.HasTarget = target, true
	return prev, moved
}

// Decide is the paper's server loop, once: subtract the uncontrollable
// load (what the caller observed plus External) from Capacity, divide
// the rest among the members in registration order, each capped at
// maxOf(member) — its live process count, asked once of every member in
// registration order before any target changes; nil means Procs — and
// floored at one. It returns the members whose target moved, in
// registration order (valid until the next call), and allocates nothing
// once its buffers have reached the fleet's size.
func (r *Registry[K]) Decide(uncontrolled int, maxOf func(m *Member[K]) int) []Move[K] {
	r.Decisions++
	r.demands = r.demands[:0]
	for i := range r.slots {
		m := &r.slots[i]
		if m.gone {
			continue
		}
		d := Demand{Max: m.Procs, Weight: m.Weight}
		if maxOf != nil {
			d.Max = maxOf(m)
		}
		r.demands = append(r.demands, d)
	}
	r.alloc = AllocateInto(r.alloc, Available(r.Capacity, uncontrolled+r.External), r.demands)
	r.moved = r.moved[:0]
	next := 0
	for i := range r.slots {
		m := &r.slots[i]
		if m.gone {
			continue
		}
		if prev, moved := r.retarget(m, r.alloc[next]); moved {
			r.moved = append(r.moved, Move[K]{Key: m.Key, Target: m.Target, Prev: prev, Handle: m.Handle})
		}
		next++
	}
	return r.moved
}

// vacate empties slot i in place; positions after it do not shift.
func (r *Registry[K]) vacate(i int) {
	delete(r.index, r.slots[i].Key)
	r.slots[i] = Member[K]{gone: true}
}

// compact squeezes the vacated slots out once they outnumber the
// members, which keeps a walk over the slots proportional to the fleet
// and the squeeze itself paid for by the departures that caused it.
func (r *Registry[K]) compact() {
	if len(r.slots) > 2*len(r.index)+8 {
		r.squeeze()
	}
}

func (r *Registry[K]) squeeze() {
	n := 0
	for i := range r.slots {
		if !r.slots[i].gone {
			r.slots[n] = r.slots[i]
			r.index[r.slots[n].Key] = n
			n++
		}
	}
	clear(r.slots[n:])
	r.slots = r.slots[:n]
}
