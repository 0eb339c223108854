package coordinator

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The profiling entry points of EXPERIMENTS.md PERF-6:
//
//	go test -run '^$' -bench 'RegisterStorm|Rebalance' -benchmem \
//	    -cpuprofile /tmp/coord.prof ./internal/runtime/coordinator

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
