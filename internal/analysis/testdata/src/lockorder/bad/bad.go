// Package bad acquires two locks in opposite orders — one side through
// a call, so only the interprocedural pass can see the cycle — and
// re-acquires a held lock through a callee (self-deadlock).
package bad

import "sync"

// Tracker is a coordinator's convergence tracker, with a lock of its own.
type Tracker struct {
	mu   sync.Mutex
	open int
}

func (t *Tracker) Open() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open++
}

type Coordinator struct {
	mu      sync.Mutex
	members int
	conv    *Tracker
}

// Decide opens an epoch while it holds the coordinator's lock: edge
// Coordinator.mu → Tracker.mu, two hops deep.
func (c *Coordinator) Decide() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conv.Open() // want "lock-order cycle"
}

// OpenEpochs takes the tracker's lock and then the coordinator's, closing
// the cycle: the inversion seeded into Coordinator.OpenEpochs
// (EXPERIMENTS.md SIMPL-6). A decision racing it deadlocks both; no test
// run hit that interleaving.
func (c *Coordinator) OpenEpochs() int {
	c.conv.mu.Lock()
	defer c.conv.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.members == 0 {
		return 0
	}
	return c.conv.open
}

type R struct{ mu sync.Mutex }

// Outer holds r.mu and calls inner, which locks it again: sync mutexes
// are not reentrant, so this deadlocks the calling goroutine.
func (r *R) Outer() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inner() // want "re-acquires"
}

func (r *R) inner() {
	r.mu.Lock()
	defer r.mu.Unlock()
}

// Shard mirrors a sharded registry: every shard's mutex is the same
// (type, field) lock class.
type Shard struct {
	mu      sync.Mutex
	entries []int
}

type Sharded struct {
	shards [4]Shard
}

// Move holds the source shard's lock and takes the destination shard's
// through a callee. Both are the shard class: to the order graph this
// re-acquires a held class — and operationally, two goroutines moving
// in opposite directions deadlock on each other's shard.
func (s *Sharded) Move(from, to int) {
	src := &s.shards[from]
	src.mu.Lock()
	defer src.mu.Unlock()
	s.insert(&s.shards[to], src.entries) // want "re-acquires"
}

func (s *Sharded) insert(dst *Shard, vs []int) {
	dst.mu.Lock()
	defer dst.mu.Unlock()
	dst.entries = append(dst.entries, vs...)
}
