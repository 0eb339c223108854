package coordinator

// Sharded member registry: the name index of the membership is split
// across a fixed power-of-two number of shards hashed by member name, so
// finding a member's slot — register, unregister — searches one
// sixteenth of the fleet under one shard lock, and a poll touches no lock
// at all (two atomics on its shard). Shards say nothing about order: the
// slots also sit, in registration order, in the coordinator's order table
// (coordinator.go), which a membership change edits under its shard lock
// and a rebalance copies as it stands. Allocation order, which the
// weighted round-robin in core.Allocate depends on, is therefore what a
// single flat table would have produced, with nothing to re-sort. No two
// shard locks are ever held at once (all shards share one lock class;
// nesting them would be a self-deadlock under a different hash seed, and
// the lockorder analyzer rejects it).

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// shardCount is the fixed shard fan-out. Sixteen shards keep a name
// search to ~625 slots at 10k members and the registry's lock
// granularity well below the contention point.
const shardCount = 16

const shardMask = shardCount - 1

// shardIndex hashes a member name onto its shard: inline FNV-1a, which
// unlike hash/fnv needs no allocation and no Hash64 indirection on the
// per-poll fast path.
func shardIndex(name string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h & shardMask)
}

// shard is one slice of the membership table plus its demand
// aggregates and traffic counters. mu guards entries, weightSum, and
// the register/unregister counts; polls and lockWaitNanos are atomics
// so the poll fast path and the contention probe never take the lock.
type shard struct {
	mu          sync.Mutex
	entries     []*entry
	weightSum   int
	registers   int64
	unregisters int64

	polls         atomic.Int64
	lockWaitNanos atomic.Int64
}

// lock acquires the shard mutex, accumulating contended wait time into
// lockWaitNanos. The uncontended path is a bare TryLock — no clock
// reads — so steady-state polls and registers pay nothing for the
// probe.
func (sh *shard) lock() {
	if sh.mu.TryLock() {
		return
	}
	start := time.Now()
	sh.mu.Lock()
	sh.lockWaitNanos.Add(time.Since(start).Nanoseconds())
}

// removeLocked drops the named member's slot from this shard and returns
// it, or nil if the name is not registered. Callers hold sh.mu.
func (sh *shard) removeLocked(name string) *entry {
	for i, e := range sh.entries {
		if e.name == name {
			sh.weightSum -= e.weight
			sh.entries = slices.Delete(sh.entries, i, i+1)
			return e
		}
	}
	return nil
}

// ShardStat is one shard's status snapshot for introspection
// (procctl-top -shards).
type ShardStat struct {
	Shard          int
	Members        int
	Weight         int
	Registers      int64
	Unregisters    int64
	Polls          int64
	LockWaitMicros int64
}

// ShardStats snapshots every shard's membership and traffic counters,
// one shard lock at a time.
func (c *Coordinator) ShardStats() []ShardStat {
	out := make([]ShardStat, shardCount)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.lock()
		out[i] = ShardStat{
			Shard:       i,
			Members:     len(sh.entries),
			Weight:      sh.weightSum,
			Registers:   sh.registers,
			Unregisters: sh.unregisters,
		}
		sh.mu.Unlock()
		out[i].Polls = sh.polls.Load()
		out[i].LockWaitMicros = sh.lockWaitNanos.Load() / 1e3
	}
	return out
}

// NotePoll counts one target poll against the named member's shard.
// This is the steady-state fast path — a hash and one atomic add, no
// locks, no allocation — called by the server on every OpPoll.
func (c *Coordinator) NotePoll(name string) {
	c.shards[shardIndex(name)].polls.Add(1)
}

// PollBench is an exported micro-benchmark harness (cmd/procctl-bench
// PollShard) for the per-poll fast path: the shard counter, the
// member's packed target+epoch read, and the convergence ack, exactly
// what the server does per steady-state OpPoll. Mirrors ConvergeBench.
type PollBench struct {
	c       *Coordinator
	names   []string
	members []*remoteMember

	// The codec half (WirePoll): each member's poll line, the connection
	// state that owns them all, and the buffers a handler reuses.
	lines [][]byte
	cs    connState
	req   Request
	spin  float64
	reply []byte
}

// NewPollBench builds a coordinator with the given number of restored
// remote members, each holding an already-settled epoch so Poll
// exercises the no-open-epochs ack path.
func NewPollBench(members int) *PollBench {
	if members < 1 {
		members = 1
	}
	b := &PollBench{c: New(64), cs: connState{owned: make(map[string]*remoteMember)}}
	for i := 0; i < members; i++ {
		m := &remoteMember{name: benchName(i), procs: 4}
		m.SetTargetEpoch(2, 1)
		b.c.RestoreMember(m, 1, 2)
		b.names = append(b.names, m.name)
		b.members = append(b.members, m)
		b.cs.owned[m.name] = m
		line, _ := appendRequest(nil, &Request{Op: OpPoll, App: m.name, Applied: 1})
		b.lines = append(b.lines, line[:len(line)-1])
	}
	return b
}

// benchName formats a member name without fmt, so harness construction
// stays dependency-light.
func benchName(i int) string {
	digits := [8]byte{'b', 'm', '0', '0', '0', '0', '0', '0'}
	for p := len(digits) - 1; p >= 2 && i > 0; p-- {
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	return string(digits[:])
}

// Poll runs one steady-state poll for the i-th member and returns its
// target. Allocation-free: the 0-alloc gate in procctl-bench pins it.
func (b *PollBench) Poll(i int, at int64) int {
	k := i % len(b.members)
	b.c.NotePoll(b.names[k])
	t, epoch := b.members[k].targetEpoch()
	b.c.AckApplied(b.names[k], epoch, at)
	return t
}

// WirePoll runs the codec's share of the i-th member's poll — its
// request line decoded, its reply encoded — and returns the reply's
// length. With Poll it is everything a served poll costs but the socket;
// allocation-free under the same gate.
func (b *PollBench) WirePoll(i int) int {
	k := i % len(b.members)
	if decodeRequest(b.lines[k], &b.req, &b.spin, b.cs.appName) != nil {
		return 0
	}
	t, epoch := b.cs.owned[b.req.App].targetEpoch()
	b.reply, _ = appendResponse(b.reply[:0], &Response{OK: true, Target: t, Epoch: epoch})
	return len(b.reply)
}
