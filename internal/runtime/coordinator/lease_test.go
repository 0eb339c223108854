package coordinator

import (
	"bytes"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"
)

// startServerWith runs a daemon with explicit lease settings.
func startServerWith(t testing.TB, capacity int, cfg ServerConfig) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(New(capacity), ln, cfg)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, sock
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestServerLeaseExpiresSilentMember(t *testing.T) {
	cfg := ServerConfig{Lease: 300 * time.Millisecond, SweepInterval: 50 * time.Millisecond}
	srv, sock := startServerWith(t, 8, cfg)

	silent, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if _, err := silent.Register("hung", 8); err != nil {
		t.Fatal(err)
	}

	healthy, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if _, err := healthy.Register("alive", 8); err != nil {
		t.Fatal(err)
	}
	if tgt, _ := healthy.Poll("alive"); tgt != 4 {
		t.Fatalf("pre-expiry target %d, want the 4/4 split", tgt)
	}

	// "hung" says nothing; "alive" keeps polling (renewing its lease).
	waitFor(t, 3*time.Second, func() bool {
		tgt, err := healthy.Poll("alive")
		return err == nil && tgt == 8
	}, "silent member's processors never reclaimed")

	if got := srv.coord.Members(); len(got) != 1 || got[0] != "alive" {
		t.Errorf("members after expiry: %v, want [alive]", got)
	}
	if v, ok := srv.coord.Metrics().Value("coordinator_lease_expiries_total"); !ok || v < 1 {
		t.Errorf("coordinator_lease_expiries_total = %d, want >= 1", v)
	}
	// The sweep closed the silent connection, so its next op fails.
	if _, err := silent.Poll("hung"); err == nil {
		t.Error("poll on a swept connection succeeded")
	}
}

func TestServerLeaseRenewedByPolls(t *testing.T) {
	cfg := ServerConfig{Lease: 250 * time.Millisecond, SweepInterval: 50 * time.Millisecond}
	srv, sock := startServerWith(t, 4, cfg)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("steady", 4); err != nil {
		t.Fatal(err)
	}
	// Poll at half the lease for four leases' worth of wall time.
	for i := 0; i < 8; i++ {
		time.Sleep(125 * time.Millisecond)
		if _, err := c.Poll("steady"); err != nil {
			t.Fatalf("poll %d on a healthy connection: %v", i, err)
		}
	}
	if v, _ := srv.coord.Metrics().Value("coordinator_lease_expiries_total"); v != 0 {
		t.Errorf("healthy member expired %d times", v)
	}
}

func TestServerStatusReportsLease(t *testing.T) {
	cfg := ServerConfig{Lease: 10 * time.Second}
	_, sock := startServerWith(t, 4, cfg)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("app", 4); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeaseSeconds != 10 {
		t.Errorf("LeaseSeconds = %v, want 10", st.LeaseSeconds)
	}
	if len(st.Apps) != 1 {
		t.Fatalf("Apps = %v", st.Apps)
	}
	rem := st.Apps[0].LeaseRemaining
	if rem < 0 || rem > 10 {
		t.Errorf("LeaseRemaining = %v, want within [0, 10]", rem)
	}
	// A freshly-registered member has nearly its whole lease left.
	if rem < 5 {
		t.Errorf("LeaseRemaining = %v right after registering, want close to 10", rem)
	}
}

func TestServerReRegisterTakesOverName(t *testing.T) {
	// A restarted client re-registers its app from a fresh connection
	// while the hung predecessor still holds the old one. The name must
	// survive the predecessor's sweep.
	cfg := ServerConfig{Lease: 300 * time.Millisecond, SweepInterval: 50 * time.Millisecond}
	srv, sock := startServerWith(t, 8, cfg)

	old, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if _, err := old.Register("app", 4); err != nil {
		t.Fatal(err)
	}

	fresh, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Register("app", 4); err != nil {
		t.Fatal(err)
	}

	// The old connection goes silent and gets swept (polling it would
	// renew its lease, so watch the server's connection count instead);
	// the fresh one keeps polling to stay alive.
	waitFor(t, 3*time.Second, func() bool {
		if _, err := fresh.Poll("app"); err != nil {
			return false
		}
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		return n == 1
	}, "predecessor connection never swept")
	if _, err := old.Poll("app"); err == nil {
		t.Error("poll on the swept predecessor connection succeeded")
	}
	for i := 0; i < 3; i++ {
		if _, err := fresh.Poll("app"); err != nil {
			t.Fatalf("successor lost its registration after predecessor sweep: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := srv.coord.Members(); len(got) != 1 || got[0] != "app" {
		t.Errorf("members = %v, want [app]", got)
	}
}

func TestServerLeaseDisabled(t *testing.T) {
	cfg := ServerConfig{Lease: -1, SweepInterval: 20 * time.Millisecond}
	srv, sock := startServerWith(t, 4, cfg)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("app", 4); err != nil {
		t.Fatal(err)
	}
	// Silent through 25 sweeps: the sweep runs with leases disabled too,
	// since it also bounds reply writes, but has no lease to expire.
	time.Sleep(25 * cfg.SweepInterval)
	if _, err := c.Poll("app"); err != nil {
		t.Fatalf("silent member dropped with leases disabled: %v", err)
	}
	if got := srv.coord.Members(); len(got) != 1 {
		t.Errorf("members = %v, want the one registration", got)
	}
	if v, _ := srv.coord.Metrics().Value("coordinator_lease_expiries_total"); v != 0 {
		t.Errorf("%d lease expiries with leases disabled", v)
	}
}

// A peer that stops draining its socket is cut off within IOTimeout +
// SweepInterval of the reply write that blocked, leases on or off, and its
// member leaves as a departure, not a lease expiry.
func TestServerCutsStuckWriter(t *testing.T) {
	const ioTimeout, sweep = 200 * time.Millisecond, 50 * time.Millisecond
	for _, tc := range []struct {
		name  string
		lease time.Duration
	}{
		{"leases off", -1},
		{"leases on", time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, sock := startServerWith(t, 8, ServerConfig{Lease: tc.lease, SweepInterval: sweep, IOTimeout: ioTimeout})
			conn, err := net.Dial("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, `{"op":"register","app":"stuck","procs":4}`+"\n"); err != nil {
				t.Fatal(err)
			}
			rd := lineReader{r: conn}
			if _, err := rd.readLine(); err != nil {
				t.Fatal(err)
			}
			// Poll without reading a reply. Once the replies fill the socket
			// the server's write blocks and it stops reading, so the polls
			// fill the other direction and a write of ours stalls too.
			polls := bytes.Repeat([]byte(`{"op":"poll","app":"stuck"}`+"\n"), 1024)
			for {
				_ = conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
				if _, err := conn.Write(polls); err != nil {
					break // stalled, or the server has already cut us off
				}
			}
			waitFor(t, ioTimeout+sweep+500*time.Millisecond, func() bool {
				srv.mu.Lock()
				n := len(srv.conns)
				srv.mu.Unlock()
				return n == 0 && len(srv.coord.Members()) == 0
			}, "stuck writer still served past IOTimeout + SweepInterval")
			if v, _ := srv.coord.Metrics().Value("coordinator_lease_expiries_total"); v != 0 {
				t.Errorf("a stuck writer counted as %d lease expiries", v)
			}
		})
	}
}
