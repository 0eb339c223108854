package coordinator

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"procctl/internal/journal"
)

// The profiling entry points of EXPERIMENTS.md PERF-6:
//
//	go test -run '^$' -bench 'RegisterStorm|Rebalance' -benchmem \
//	    -cpuprofile /tmp/coord.prof ./internal/runtime/coordinator
//
// and, one rung each below a served poll, BenchmarkPollShard and
// BenchmarkWirePoll; BenchmarkServedPoll is the served poll itself, and
// BenchmarkLineEcho its socket round trip alone.

// stubMember is an in-process member that accepts targets and does
// nothing with them.
type stubMember struct {
	name   string
	procs  int
	target int
}

func (s *stubMember) Name() string    { return s.name }
func (s *stubMember) Workers() int    { return s.procs }
func (s *stubMember) SetTarget(n int) { s.target = n }

// stubFleet registers n seeded stub members (procs 1–16, weights 1–4)
// under one batched flush, so building the fleet costs one rebalance.
func stubFleet(n int) *Coordinator {
	rng := rand.New(rand.NewSource(int64(n)))
	c := New(4 * n)
	stop := c.StartBatching(time.Hour)
	for i := 0; i < n; i++ {
		c.RegisterWeighted(&stubMember{name: fmt.Sprintf("stub-%05d", i), procs: 1 + rng.Intn(16)}, 1+rng.Intn(4))
	}
	stop()
	return c
}

// BenchmarkRebalance is one steady-state Rebalance() — nothing changes,
// every member is pushed to — at the three fleet sizes the repo
// benchmark's coordinator.rebalance_us_m* probes use.
func BenchmarkRebalance(b *testing.B) {
	for _, n := range []int{200, 2000, 10000} {
		b.Run(fmt.Sprintf("m=%d", n), func(b *testing.B) {
			c := stubFleet(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Rebalance()
			}
		})
	}
}

// BenchmarkRebalanceSocket is BenchmarkRebalance over socket members,
// seated as Server.Restore seats a recovered fleet: the fan-out's
// *remoteMember case against its Targeter lookup.
func BenchmarkRebalanceSocket(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		b.Run(fmt.Sprintf("m=%d", n), func(b *testing.B) {
			c := newPollBench(n).c
			c.Rebalance()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Rebalance()
			}
		})
	}
}

// BenchmarkRegisterStorm is what a restarted daemon's fleet does to it,
// and what the repo benchmark's fleet_poll set-up times: 2000 socket-style
// members registering back to back without batching, each registration an
// inline rebalance of everyone seated so far.
func BenchmarkRegisterStorm(b *testing.B) {
	const members = 2000
	rng := rand.New(rand.NewSource(1))
	fleet := make([]remoteMember, members)
	weights := make([]int, members)
	for i := range fleet {
		fleet[i].name, fleet[i].procs = fmt.Sprintf("app-%04d", i), 1+rng.Intn(16)
		weights[i] = 1 + rng.Intn(4)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(4 * members)
		for j := range fleet {
			m := &remoteMember{name: fleet[j].name, procs: fleet[j].procs}
			m.SetTargetEpoch(m.procs, 0)
			c.RegisterWeighted(m, weights[j])
		}
	}
}

// pollBench is the per-poll fast path with the socket stripped away: the
// member's packed target+epoch read and the convergence ack, exactly what
// the server does per steady-state OpPoll.
type pollBench struct {
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

// newPollBench builds a coordinator with the given number of remote
// members, seated the way Server.Restore seats a recovered fleet, each
// then holding an already-settled epoch so Poll exercises the
// no-open-epochs ack path.
func newPollBench(members int) *pollBench {
	b := &pollBench{c: New(64), cs: connState{owned: make(map[string]*remoteMember)}}
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
// target.
func (b *pollBench) Poll(i int, at int64) int {
	m := b.members[i%len(b.members)]
	t, epoch := m.targetEpoch()
	b.c.AckApplied(m.name, epoch, at)
	return t
}

// WirePoll runs the codec's share of the i-th member's poll — its
// request line decoded, its reply encoded — and returns the reply's
// length. With Poll it is everything a served poll costs but the socket.
func (b *pollBench) WirePoll(i int) int {
	k := i % len(b.members)
	if decodeRequest(b.lines[k], &b.req, &b.spin, b.cs.appName) != nil {
		return 0
	}
	t, epoch := b.cs.owned[b.req.App].targetEpoch()
	b.reply, _ = appendResponse(b.reply[:0], &Response{OK: true, Target: t, Epoch: epoch})
	return len(b.reply)
}

// BenchmarkPollShard is one steady-state poll's coordinator work: the
// target read and the convergence ack.
func BenchmarkPollShard(b *testing.B) {
	b.ReportAllocs()
	pb := newPollBench(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Poll(i&63, int64(i))
	}
}

// BenchmarkWirePoll is the line codec's share of a served poll: one
// request decoded and its reply encoded.
func BenchmarkWirePoll(b *testing.B) {
	b.ReportAllocs()
	pb := newPollBench(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.WirePoll(i & 63)
	}
}

// BenchmarkLineEcho is BenchmarkServedPoll with no coordinator behind the
// socket: the connection round trip alone. Two connections of 64 names
// each send their members' poll lines back to back over a unix socket,
// framed by the same lineReader on both sides, and an echo server answers
// every line with one fixed poll reply. What BenchmarkServedPoll costs
// above this is procctl's: codec, dispatch, registry and ack.
func BenchmarkLineEcho(b *testing.B) {
	const conns, members = 2, 64
	sock := filepath.Join(b.TempDir(), "echo.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	reply, _ := appendResponse(nil, &Response{OK: true, Target: 2, Epoch: 1})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				rd := lineReader{r: conn, max: maxRequestLine}
				for {
					if _, err := rd.readLine(); err != nil {
						return
					}
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	lines := make([][][]byte, conns)
	clients := make([]net.Conn, conns)
	for i := range clients {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { conn.Close() })
		clients[i] = conn
		for j := 0; j < members; j++ {
			line, _ := appendRequest(nil, &Request{Op: OpPoll, App: fmt.Sprintf("served-%d-%02d", i, j), Applied: 1})
			lines[i] = append(lines[i], line)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, conn := range clients {
		n := b.N / conns
		if i == 0 {
			n += b.N % conns
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := lineReader{r: conn}
			for k := 0; k < n; k++ {
				if _, err := conn.Write(lines[i][k%members]); err != nil {
					b.Error(err)
					return
				}
				if _, err := rd.readLine(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkServedPoll is a whole served poll, the rung between
// PollShard+WirePoll and the repo benchmark's fleet_poll: Client.PollEpoch
// against Server over a unix socket, both sides in this process, on two
// connections of 64 members each polling at once, every poll acking the
// settled epoch its member holds. The allocation count is both sides'.
func BenchmarkServedPoll(b *testing.B) {
	const conns, members = 2, 64
	srv, sock := startServer(b, conns*members)
	type polled struct {
		name  string
		epoch uint64
	}
	fleet := make([][]polled, conns)
	clients := make([]*Client, conns)
	for i := range clients {
		c, err := Dial("unix", sock)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		clients[i] = c
		for j := 0; j < members; j++ {
			name := fmt.Sprintf("served-%d-%02d", i, j)
			if _, err := c.RegisterWeighted(name, 4, 0); err != nil {
				b.Fatal(err)
			}
			fleet[i] = append(fleet[i], polled{name: name})
		}
	}
	for i, c := range clients {
		for j := range fleet[i] {
			m := &fleet[i][j]
			var err error
			if _, m.epoch, err = c.PollEpoch(m.name, 0); err != nil {
				b.Fatal(err)
			}
			if _, _, err = c.PollEpoch(m.name, m.epoch); err != nil {
				b.Fatal(err)
			}
		}
	}
	if n := srv.coord.OpenEpochs(); n != 0 {
		b.Fatalf("%d epochs still open after every member acked", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, c := range clients {
		n := b.N / conns
		if i == 0 {
			n += b.N % conns
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				m := &fleet[i][k%members]
				if _, _, err := c.PollEpoch(m.name, m.epoch); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPollBenchFastPathZeroAlloc(t *testing.T) {
	b := newPollBench(64)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Poll(7, 1)
	})
	if allocs != 0 {
		t.Errorf("poll fast path allocates %.1f per op, want 0", allocs)
	}
}
