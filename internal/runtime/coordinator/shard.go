package coordinator

// Shards: member names hash onto a fixed power-of-two number of shards,
// which own no membership — that is the registry's, under c.mu
// (coordinator.go) — only traffic counters: registrations,
// unregistrations and polls of the names that land there, and how long
// those membership changes waited for c.mu. They are atomics, so a poll
// touches no lock at all (a hash and one add), and a status read
// (procctl-top -shards) derives each shard's members and weight by
// hashing a copy of the membership.

import (
	"sync/atomic"
	"time"

	"procctl/internal/journal"
)

// shardCount is the fixed shard fan-out, a power of two.
const shardCount = 16

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
	return int(h & (shardCount - 1))
}

// shard is the traffic of the member names that hash to it.
type shard struct {
	registers, unregisters, polls atomic.Int64
	lockWaitNanos                 atomic.Int64
}

// lockFor acquires c.mu for a membership change of a name in sh,
// accumulating contended wait time into the shard's lockWaitNanos. The
// uncontended path is a bare TryLock — no clock reads — so a steady
// registration pays nothing for the probe.
func (c *Coordinator) lockFor(sh *shard) {
	if c.mu.TryLock() {
		return
	}
	start := time.Now()
	c.mu.Lock()
	sh.lockWaitNanos.Add(time.Since(start).Nanoseconds())
}

// ShardStat is one shard's status snapshot for introspection
// (procctl-top -shards), in the form the wire carries it.
type ShardStat = ShardStatus

// ShardStats snapshots every shard's traffic counters and counts the
// membership into the shards its names hash to.
func (c *Coordinator) ShardStats() []ShardStat {
	out := make([]ShardStat, shardCount)
	for i := range out {
		sh := &c.shards[i]
		out[i] = ShardStat{
			Shard:          i,
			Registers:      sh.registers.Load(),
			Unregisters:    sh.unregisters.Load(),
			Polls:          sh.polls.Load(),
			LockWaitMicros: sh.lockWaitNanos.Load() / 1e3,
		}
	}
	for _, m := range c.members() {
		st := &out[shardIndex(m.Key)]
		st.Members++
		st.Weight += m.Weight
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
	members []*remoteMember

	// The codec half (WirePoll): each member's poll line, the connection
	// state that owns them all, and the buffers a handler reuses.
	lines [][]byte
	cs    connState
	req   Request
	spin  float64
	reply []byte
}

// NewPollBench builds a coordinator with the given number of remote
// members, seated the way Server.Restore seats a recovered fleet, each
// then holding an already-settled epoch so Poll exercises the
// no-open-epochs ack path.
func NewPollBench(members int) *PollBench {
	if members < 1 {
		members = 1
	}
	b := &PollBench{c: New(64), cs: connState{owned: make(map[string]*remoteMember)}}
	var st journal.State
	for i := 0; i < members; i++ {
		st.Members = append(st.Members, journal.Member{Name: benchName(i), Procs: 4, Weight: 1, Target: 2})
	}
	for _, m := range b.c.restore(st) {
		m.SetTargetEpoch(2, 1)
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
	m := b.members[i%len(b.members)]
	b.c.NotePoll(m.name)
	t, epoch := m.targetEpoch()
	b.c.AckApplied(m.name, epoch, at)
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
