package journal

import (
	"bytes"
	"encoding/json"
	"sort"
)

// The fold recovery used before it folded into core.Registry: State as
// its own state machine, members kept name-sorted, one switch of its
// own. Kept verbatim as the reference the tests hold the Registry fold
// against (TestFoldMatchesReference compares the two at every prefix of
// seeded record streams) and build their expected states with.

// find returns the index of the named member, or -1: a binary search
// of the sorted Members, because replay calls it for every register,
// unregister and target record.
func (s *State) find(name string) int {
	i := sort.Search(len(s.Members), func(i int) bool { return s.Members[i].Name >= name })
	if i < len(s.Members) && s.Members[i].Name == name {
		return i
	}
	return -1
}

// upsert inserts or replaces a member, keeping Members sorted by name.
func (s *State) upsert(m Member) {
	if i := s.find(m.Name); i >= 0 {
		s.Members[i] = m
		return
	}
	i := sort.Search(len(s.Members), func(i int) bool { return s.Members[i].Name >= m.Name })
	s.Members = append(s.Members, Member{})
	copy(s.Members[i+1:], s.Members[i:])
	s.Members[i] = m
}

// remove drops the named member if present.
func (s *State) remove(name string) {
	if i := s.find(name); i >= 0 {
		s.Members = append(s.Members[:i], s.Members[i+1:]...)
	}
}

// Apply folds one record into the state. This is the single definition
// of replay semantics: startup recovery and the record/replay harness
// both reconstruct registries through it. Unknown kinds advance LastSeq
// and change nothing else, so new record kinds stay readable by old
// fsck code.
func (s *State) Apply(r Record) {
	switch r.Kind {
	case KindRegister:
		target := 0
		if i := s.find(r.App); i >= 0 {
			target = s.Members[i].Target // re-register keeps the last target until the next rebalance
		}
		s.upsert(Member{Name: r.App, Procs: int(r.A), Weight: int(r.B), Target: target, LastSeen: r.At})
	case KindUnregister, KindLeaseExpiry:
		s.remove(r.App)
	case KindTarget:
		if i := s.find(r.App); i >= 0 {
			s.Members[i].Target = int(r.A)
		}
	case KindRebalance:
		s.Rebalances++
	case KindSetLoad:
		s.External = int(r.A)
	case KindSetCapacity:
		s.Capacity = int(r.A)
	case KindRestart:
		// A restart marker carries no state of its own: the recovered
		// registry is exactly what the preceding records reconstruct.
	}
	s.LastSeq = r.Seq
	s.At = r.At
}

// Clone returns a deep copy of the state.
func (s *State) Clone() State {
	out := *s
	out.Members = append([]Member(nil), s.Members...)
	return out
}

// sameState compares two states by the bytes a snapshot would hold for
// them, so a nil Members and an empty one — which marshal alike — are
// not mistaken for different registries.
func sameState(a, b State) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}
