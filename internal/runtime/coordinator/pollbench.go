package coordinator

import (
	"fmt"
	"time"

	"procctl/internal/journal"
)

// NotePoll counted a poll against its name's shard when there were
// shards. coordinator_rpcs_total{op="poll"} counts polls; what is left is
// the name benchmark/ compiles against, for ROADMAP item 1(d) to delete.
func (c *Coordinator) NotePoll(name string) {}

// PollBench is an exported micro-benchmark harness (cmd/procctl-bench
// PollShard) for the per-poll fast path: the member's packed
// target+epoch read and the convergence ack, exactly what the server does
// per steady-state OpPoll. Mirrors ConvergeBench.
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
		st.Members = append(st.Members, journal.Member{Name: fmt.Sprintf("bm%06d", i), Procs: 4, Weight: 1, Target: 2})
	}
	for _, m := range b.c.restore(st, time.Time{}) {
		m.SetTargetEpoch(2, 1)
		b.members = append(b.members, m)
		b.cs.owned[m.name] = m
		line, _ := appendRequest(nil, &Request{Op: OpPoll, App: m.name, Applied: 1})
		b.lines = append(b.lines, line[:len(line)-1])
	}
	return b
}

// Poll runs one steady-state poll for the i-th member and returns its
// target. Allocation-free: the 0-alloc gate in procctl-bench pins it.
func (b *PollBench) Poll(i int, at int64) int {
	m := b.members[i%len(b.members)]
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
