package coordinator

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"procctl/internal/flight"
	"procctl/internal/runtime/pool"
)

// A silent member is still served at Lease and gone by Lease + one
// sweep, while a member polling at the paper's interval keeps its own.
func TestServerLeaseExpiresSilentMember(t *testing.T) {
	runBubble(t, func() {
		srv := startPipeServer(8, DefaultLease)
		defer srv.Close()
		silent := pipeClient(srv)
		defer silent.Close()
		if _, err := silent.RegisterWeighted("hung", 8, 0); err != nil {
			t.Fatal(err)
		}
		healthy := pipeClient(srv)
		defer healthy.Close()
		if _, err := healthy.RegisterWeighted("alive", 8, 0); err != nil {
			t.Fatal(err)
		}
		if tgt, _, _ := healthy.PollEpoch("alive", 0); tgt != 4 {
			t.Fatalf("pre-expiry target %d, want the 4/4 split", tgt)
		}

		// "hung" says nothing; "alive" polls every DefaultPollInterval.
		for elapsed := time.Duration(0); elapsed < DefaultLease; elapsed += DefaultPollInterval {
			time.Sleep(DefaultPollInterval)
			if _, _, err := healthy.PollEpoch("alive", 0); err != nil {
				t.Fatal(err)
			}
		}
		waitBubble()
		if got := srv.coord.Members(); len(got) != 2 {
			t.Fatalf("members at exactly the lease: %v, want both", got)
		}
		time.Sleep(sweepEvery(DefaultLease))
		waitBubble()
		if got := srv.coord.Members(); len(got) != 1 || got[0] != "alive" {
			t.Errorf("members one sweep past the lease: %v, want [alive]", got)
		}
		if tgt, _, err := healthy.PollEpoch("alive", 0); err != nil || tgt != 8 {
			t.Errorf("survivor's poll = %d, %v; want the whole machine", tgt, err)
		}
		if v := leaseExpiries(srv); v != 1 {
			t.Errorf("coordinator_lease_expiries_total = %d, want 1", v)
		}
		// The sweep closed the silent connection, so its next op fails.
		if _, _, err := silent.PollEpoch("hung", 0); err == nil {
			t.Error("poll on a swept connection succeeded")
		}
	})
}

// A member silent for exactly its lease between polls is never expired:
// the sweep cuts silence past the lease, not at it.
func TestServerLeaseRenewedByPolls(t *testing.T) {
	runBubble(t, func() {
		srv := startPipeServer(4, DefaultLease)
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()
		if _, err := c.RegisterWeighted("steady", 4, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			time.Sleep(DefaultLease)
			if _, _, err := c.PollEpoch("steady", 0); err != nil {
				t.Fatalf("poll %d on a healthy connection: %v", i, err)
			}
		}
		if v := leaseExpiries(srv); v != 0 {
			t.Errorf("healthy member expired %d times", v)
		}
	})
}

func TestServerStatusReportsLease(t *testing.T) {
	runBubble(t, func() {
		srv := startPipeServer(4, DefaultLease)
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()
		if _, err := c.RegisterWeighted("app", 4, 0); err != nil {
			t.Fatal(err)
		}
		// Any op renews its connection's lease, so ask from another one.
		observer := pipeClient(srv)
		defer observer.Close()
		const waited = 5 * time.Second
		for _, want := range []time.Duration{DefaultLease, DefaultLease - waited} {
			st, err := observer.Status()
			if err != nil {
				t.Fatal(err)
			}
			if st.LeaseSeconds != DefaultLease.Seconds() {
				t.Errorf("LeaseSeconds = %v, want %v", st.LeaseSeconds, DefaultLease.Seconds())
			}
			if len(st.Apps) != 1 {
				t.Fatalf("Apps = %v", st.Apps)
			}
			if rem := st.Apps[0].LeaseRemaining; rem != want.Seconds() {
				t.Errorf("LeaseRemaining = %v, want %v", rem, want.Seconds())
			}
			time.Sleep(waited)
		}
	})
}

// A restarted client re-registers its app from a fresh connection while
// the hung predecessor still holds the old one. The predecessor is swept
// one lease later, and the name survives it: no expiry is recorded.
func TestServerReRegisterTakesOverName(t *testing.T) {
	runBubble(t, func() {
		srv := startPipeServer(8, DefaultLease)
		defer srv.Close()
		old := pipeClient(srv)
		defer old.Close()
		if _, err := old.RegisterWeighted("app", 4, 0); err != nil {
			t.Fatal(err)
		}
		fresh := pipeClient(srv)
		defer fresh.Close()
		if _, err := fresh.RegisterWeighted("app", 4, 0); err != nil {
			t.Fatal(err)
		}

		// The old connection goes silent (polling it would renew its
		// lease); the fresh one polls at the paper's interval.
		for elapsed := time.Duration(0); elapsed < DefaultLease+2*sweepEvery(DefaultLease); elapsed += DefaultPollInterval {
			time.Sleep(DefaultPollInterval)
			if _, _, err := fresh.PollEpoch("app", 0); err != nil {
				t.Fatalf("successor's poll at %v: %v", elapsed+DefaultPollInterval, err)
			}
		}
		waitBubble()
		if n := openConns(srv); n != 1 {
			t.Fatalf("%d connections one sweep past the predecessor's lease, want 1", n)
		}
		if _, _, err := old.PollEpoch("app", 0); err == nil {
			t.Error("poll on the swept predecessor connection succeeded")
		}
		if got := srv.coord.Members(); len(got) != 1 || got[0] != "app" {
			t.Errorf("members = %v, want [app]", got)
		}
		if v := leaseExpiries(srv); v != 0 {
			t.Errorf("the swept predecessor counted %d lease expiries against a name it no longer held", v)
		}
	})
}

func TestServerLeaseDisabled(t *testing.T) {
	runBubble(t, func() {
		srv := startPipeServer(4, 0)
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()
		if _, err := c.RegisterWeighted("app", 4, 0); err != nil {
			t.Fatal(err)
		}
		// Silent for ten production leases: the sweep runs with leases
		// disabled too, since it also bounds reply writes, but has no
		// lease to expire.
		time.Sleep(10 * DefaultLease)
		if _, _, err := c.PollEpoch("app", 0); err != nil {
			t.Fatalf("silent member dropped with leases disabled: %v", err)
		}
		if got := srv.coord.Members(); len(got) != 1 {
			t.Errorf("members = %v, want the one registration", got)
		}
		if v := leaseExpiries(srv); v != 0 {
			t.Errorf("%d lease expiries with leases disabled", v)
		}
	})
}

// A peer that stops draining its connection is still served at
// DefaultIOTimeout after the reply write that blocked and cut off one
// sweep later, leases on or off, and its member leaves as a departure,
// not a lease expiry. The reply here is to a request that arrives at the
// accept instant.
func TestServerCutsStuckWriter(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lease time.Duration
	}{
		{"leases off", 0},
		{"leases on", DefaultLease},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runBubble(t, func() {
				srv := startPipeServer(8, tc.lease)
				defer srv.Close()
				conn := srv.ln.(*pipeListener).dial()
				defer conn.Close()
				// Register and never read the reply: its write blocks.
				if _, err := io.WriteString(conn, `{"op":"register","app":"stuck","procs":4}`+"\n"); err != nil {
					t.Fatal(err)
				}
				time.Sleep(DefaultIOTimeout)
				waitBubble()
				if n, m := openConns(srv), len(srv.coord.Members()); n != 1 || m != 1 {
					t.Fatalf("at the I/O bound: %d connections, %d members; want the stuck writer still served", n, m)
				}
				time.Sleep(sweepEvery(srv.lease))
				waitBubble()
				if n, m := openConns(srv), len(srv.coord.Members()); n != 0 || m != 0 {
					t.Errorf("one sweep past the I/O bound: %d connections, %d members; want none", n, m)
				}
				if v := leaseExpiries(srv); v != 0 {
					t.Errorf("a stuck writer counted as %d lease expiries", v)
				}
			})
		})
	}
}

// TestRecoveredMemberLeaseExpires gives restored members one fresh
// lease: with no client claiming the name, the first sweep past it
// reclaims the member and journals the expiry.
func TestRecoveredMemberLeaseExpires(t *testing.T) {
	dir := t.TempDir()
	runBubble(t, func() {
		srv1, stop1 := bootJournaledServer(t, dir, newPipeListener())
		// The connection stays open across the shutdown: Close-path
		// cleanup is quiet, so "ghost" survives in the journal.
		c := pipeClient(srv1)
		defer c.Close()
		if _, err := c.RegisterWeighted("ghost", 4, 0); err != nil {
			t.Fatal(err)
		}
		stop1()

		srv2, stop2 := bootJournaledServer(t, dir, newPipeListener())
		defer stop2()
		time.Sleep(DefaultLease)
		waitBubble()
		if n := len(srv2.coord.Members()); n != 1 {
			t.Fatalf("%d members at exactly the recovery lease, want the restored one", n)
		}
		time.Sleep(sweepEvery(DefaultLease))
		waitBubble()
		if n := len(srv2.coord.Members()); n != 0 {
			t.Fatalf("%d members one sweep past the recovery lease, want 0", n)
		}
		if members := journalMembers(t, dir); len(members) != 0 {
			t.Errorf("journal still holds expired member: %+v", members)
		}
	})
}

// TestRecoveredMemberTakeover: a client re-registering a restored name
// claims it; the member must not expire afterwards.
func TestRecoveredMemberTakeover(t *testing.T) {
	dir := t.TempDir()
	runBubble(t, func() {
		srv1, stop1 := bootJournaledServer(t, dir, newPipeListener())
		c := pipeClient(srv1)
		defer c.Close()
		if _, err := c.RegisterWeighted("phoenix", 4, 0); err != nil {
			t.Fatal(err)
		}
		stop1()

		srv2, stop2 := bootJournaledServer(t, dir, newPipeListener())
		defer stop2()
		c2 := pipeClient(srv2)
		defer c2.Close()
		if _, err := c2.RegisterWeighted("phoenix", 4, 0); err != nil {
			t.Fatal(err)
		}
		// Poll past three recovery leases: the claimed member stays.
		for elapsed := time.Duration(0); elapsed < 3*DefaultLease; elapsed += DefaultPollInterval {
			time.Sleep(DefaultPollInterval)
			if _, _, err := c2.PollEpoch("phoenix", 0); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(srv2.coord.Members()); n != 1 {
			t.Fatalf("claimed member expired: %d members", n)
		}
		if v := leaseExpiries(srv2); v != 0 {
			t.Errorf("%d lease expiries after the claim", v)
		}
		if members := journalMembers(t, dir); len(members) != 1 || members[0].Name != "phoenix" {
			t.Errorf("journal members = %+v, want phoenix", members)
		}
	})
}

// Member names never become label values (ROADMAP 3c′): the registry
// has the same series whatever the fleet's size, through registration,
// polling, lease expiry and unregistration.
func TestMetricsSeriesIndependentOfFleetSize(t *testing.T) {
	small, large := seriesThroughLifecycle(t, 20), seriesThroughLifecycle(t, 2000)
	for i, phase := range []string{"registered and polled", "lease expired", "re-registered", "unregistered"} {
		if small[i] != large[i] {
			t.Errorf("%s: %d series with 20 members, %d with 2000", phase, small[i], large[i])
		}
	}
}

// seriesThroughLifecycle runs a fleet of n members through a daemon and
// returns the registry's series count after each phase.
func seriesThroughLifecycle(t *testing.T, n int) (counts [4]int) {
	t.Helper()
	runBubble(t, func() {
		srv := startPipeServer(4*n, DefaultLease)
		defer srv.Close()
		// Batched, as a daemon serving a fleet runs: the subject is the
		// registry, not two thousand inline rebalances.
		stop := srv.coord.StartBatching(0)
		defer stop()
		series := func() int { return len(srv.coord.Snapshot().Metrics) }
		name := func(i int) string { return fmt.Sprintf("app-%04d", i) }
		register := func() *Client {
			cl := pipeClient(srv)
			for i := 0; i < n; i++ {
				if _, err := cl.RegisterWeighted(name(i), 4, 0); err != nil {
					t.Fatal(err)
				}
			}
			return cl
		}

		cl := register()
		defer cl.Close()
		for i := 0; i < n; i++ {
			if _, _, err := cl.PollEpoch(name(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		counts[0] = series()

		// Silence: the lease lapses and the sweep drops the whole connection.
		time.Sleep(DefaultLease + sweepEvery(DefaultLease))
		waitBubble()
		if m := len(srv.coord.Members()); m != 0 {
			t.Fatalf("%d of %d silent members left one sweep past the lease", m, n)
		}
		counts[1] = series()

		cl2 := register()
		defer cl2.Close()
		counts[2] = series()
		for i := 0; i < n; i++ {
			if err := cl2.Unregister(name(i)); err != nil {
				t.Fatal(err)
			}
		}
		counts[3] = series()
	})
	return counts
}

// The lease half of internal/runtime's wall-clock
// TestChaosHungAndKilledClientsReclaimed, on virtual time with the
// production lease: a pool driven at the paper's poll interval, a hung
// client and a killed one. The killed client's processors come back at
// once, the hung one's within Lease + one sweep, and the pool learns of
// the whole machine at its next poll. Two runs leave the coordinator's
// flight log byte for byte the same.
func TestChaosHungAndKilledClientsReclaimedVirtual(t *testing.T) {
	first, second := hungAndKilled(t), hungAndKilled(t)
	if !bytes.Equal(first, second) {
		t.Errorf("two runs of one scenario recorded different flight logs:\n%s\n---\n%s", first, second)
	}
}

// hungAndKilled runs the scenario once and returns the coordinator's
// flight log as JSONL. synctest fakes time, not goroutine order, so each
// step waits until the bubble is idle before the next client moves.
func hungAndKilled(t *testing.T) []byte {
	var log bytes.Buffer
	runBubble(t, func() {
		srv := startPipeServer(8, DefaultLease)
		defer srv.Close()
		coord := srv.coord
		sum := func() (n int) {
			for _, v := range coord.Targets() {
				n += v
			}
			return n
		}

		healthy := pipeClient(srv)
		defer healthy.Close()
		p := pool.New(pool.Config{Name: "healthy", Workers: 8})
		defer p.Wait()
		defer p.Close()
		drv, err := healthy.DriveWith("healthy", 8, p, DriveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer drv.Stop()
		waitBubble()
		hung := pipeClient(srv)
		defer hung.Close()
		if _, err := hung.RegisterWeighted("hung", 8, 0); err != nil {
			t.Fatal(err)
		}
		waitBubble()
		killed := pipeClient(srv)
		if _, err := killed.RegisterWeighted("killed", 8, 0); err != nil {
			t.Fatal(err)
		}
		waitBubble()
		if n := len(coord.Members()); n != 3 || sum() != 8 {
			t.Fatalf("%d members holding %d processors, want three splitting 8", n, sum())
		}

		// The killed client's connection drops: it leaves on the spot.
		killed.Close()
		waitBubble()
		if n := len(coord.Members()); n != 2 || sum() != 8 {
			t.Fatalf("after the kill: %d members holding %d processors, want two holding 8", n, sum())
		}

		// The hung client is silent; only the sweep can reclaim it.
		time.Sleep(DefaultLease)
		waitBubble()
		if n := len(coord.Members()); n != 2 {
			t.Fatalf("%d members at exactly the lease, want the hung one still there", n)
		}
		time.Sleep(sweepEvery(DefaultLease))
		waitBubble()
		if m := coord.Members(); len(m) != 1 || m[0] != "healthy" || coord.Targets()["healthy"] != 8 {
			t.Fatalf("one sweep past the lease: members %v, targets %v; want healthy alone with 8", m, coord.Targets())
		}
		if v := leaseExpiries(srv); v != 1 {
			t.Errorf("coordinator_lease_expiries_total = %d, want 1", v)
		}
		time.Sleep(DefaultPollInterval)
		waitBubble()
		if got := p.Target(); got != 8 {
			t.Errorf("pool target %d a poll interval after the reclaim, want the whole machine", got)
		}
		if err := flight.WriteJSONL(&log, coord.rec.Snapshot(0)); err != nil {
			t.Fatal(err)
		}
	})
	return log.Bytes()
}
