package coordinator

import (
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"procctl/internal/journal"
)

// startJournaledServer runs a daemon with a journal attached the way
// procctld does at boot: recover, restore, open, attach, rebalance.
func startJournaledServer(t *testing.T, capacity int, dir string, cfg ServerConfig) (*Server, string) {
	t.Helper()
	res, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	coord := New(capacity)
	srv := NewServerWith(coord, ln, cfg)
	now := time.Now()
	restored := 0
	if res.Replayed > 0 || len(res.State.Members) > 0 {
		restored = srv.Restore(res.State, now)
	}
	w, err := journal.Open(dir, res.NextSeq, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	coord.SetJournal(w)
	// The restart record goes first: replay re-sorts the membership the
	// way Restore just did, so the rebalances that follow see the same
	// tie-break order on both sides.
	if restored > 0 {
		coord.RecordEvent(journal.Record{
			At: now.UnixMicro(), Kind: journal.KindRestart,
			A: int64(restored), B: res.TruncatedBytes,
		})
	}
	if err := coord.SetCapacity(capacity); err != nil {
		t.Fatal(err)
	}
	coord.Rebalance()
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		w.Close()
	})
	return srv, sock
}

// journalMembers recovers dir and returns the member list.
func journalMembers(t *testing.T, dir string) []journal.Member {
	t.Helper()
	res, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	return res.State.Members
}

// TestJournalCapturesTransitions drives the full durable-event surface
// through a live server and asserts the journal replays to the live
// registry.
func TestJournalCapturesTransitions(t *testing.T) {
	dir := t.TempDir()
	_, sock := startJournaledServer(t, 8, dir, ServerConfig{})

	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RegisterWeighted("web", 4, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("batch", 6); err != nil {
		t.Fatal(err)
	}
	if err := c.SetExternalLoad(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("batch"); err != nil {
		t.Fatal(err)
	}

	res, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := res.State
	if st.Capacity != 8 || st.External != 2 {
		t.Errorf("replayed scalars: capacity=%d external=%d", st.Capacity, st.External)
	}
	if len(st.Members) != 1 || st.Members[0].Name != "web" ||
		st.Members[0].Procs != 4 || st.Members[0].Weight != 2 {
		t.Errorf("replayed members: %+v", st.Members)
	}
	// 6 processors available after external load; web is alone, capped
	// by its 4 procs.
	if st.Members[0].Target != 4 {
		t.Errorf("replayed target %d, want 4", st.Members[0].Target)
	}
}

// TestCleanShutdownPreservesRegistry is the satellite-critical
// property: Close-path unregisters are quiet, so the journal still
// holds the membership for the next incarnation.
func TestCleanShutdownPreservesRegistry(t *testing.T) {
	dir := t.TempDir()
	srv, sock := startJournaledServer(t, 8, dir, ServerConfig{})

	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("keepme", 4); err != nil {
		t.Fatal(err)
	}

	srv.Close() // clean shutdown: handler cleanup must not journal unregisters

	members := journalMembers(t, dir)
	if len(members) != 1 || members[0].Name != "keepme" {
		t.Fatalf("clean shutdown lost the registry: %+v", members)
	}
}

// TestRestartRecoversRegistry restarts a daemon on the same journal dir
// and checks the registry comes back without any client traffic.
func TestRestartRecoversRegistry(t *testing.T) {
	dir := t.TempDir()
	srv1, sock1 := startJournaledServer(t, 8, dir, ServerConfig{})
	c, err := Dial("unix", sock1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterWeighted("web", 4, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("batch", 8); err != nil {
		t.Fatal(err)
	}
	before := journalMembers(t, dir)
	// The daemon goes first: a client that hangs up before the shutdown
	// has left the fleet, durably, if its handler gets to it in time.
	srv1.Close()
	c.Close()

	srv2, _ := startJournaledServer(t, 8, dir, ServerConfig{})
	apps := srv2.status().Apps
	if len(apps) != 2 {
		t.Fatalf("restored %d members, want 2: %+v", len(apps), apps)
	}
	byName := map[string]AppStatus{}
	for _, app := range apps {
		byName[app.Name] = app
	}
	if w := byName["web"]; w.Procs != 4 || w.Weight != 2 {
		t.Errorf("web restored as %+v", w)
	}
	if b := byName["batch"]; b.Procs != 8 || b.Weight != 1 {
		t.Errorf("batch restored as %+v", b)
	}

	// The journal after restart must replay to the same membership.
	after := journalMembers(t, dir)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("registry changed across restart\n before %+v\n after  %+v", before, after)
	}
}

// TestRecoveredMemberLeaseExpires gives restored members one fresh
// lease: with no client claiming the name, the sweep reclaims it and
// journals the expiry.
func TestRecoveredMemberLeaseExpires(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Lease: 300 * time.Millisecond, SweepInterval: 50 * time.Millisecond}
	srv1, sock1 := startJournaledServer(t, 8, dir, cfg)
	// The connection stays open across the shutdown: Close-path cleanup
	// is quiet, so "ghost" survives in the journal.
	c, err := Dial("unix", sock1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("ghost", 4); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2, _ := startJournaledServer(t, 8, dir, cfg)
	if n := len(srv2.coord.Members()); n != 1 {
		t.Fatalf("restored %d members, want 1", n)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(srv2.coord.Members()) == 0
	}, "recovered member never lease-expired")

	members := journalMembers(t, dir)
	if len(members) != 0 {
		t.Errorf("journal still holds expired member: %+v", members)
	}
}

// TestRecoveredMemberTakeover: a client re-registering a restored name
// claims it; the member must not expire afterwards.
func TestRecoveredMemberTakeover(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Lease: 400 * time.Millisecond, SweepInterval: 50 * time.Millisecond}
	srv1, sock1 := startJournaledServer(t, 8, dir, cfg)
	c, err := Dial("unix", sock1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("phoenix", 4); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2, sock2 := startJournaledServer(t, 8, dir, cfg)
	c2, err := Dial("unix", sock2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Register("phoenix", 4); err != nil {
		t.Fatal(err)
	}
	// Poll past the original recovery lease: the claimed member stays.
	deadline := time.Now().Add(3 * cfg.Lease)
	for time.Now().Before(deadline) {
		if _, err := c2.Poll("phoenix"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := len(srv2.coord.Members()); n != 1 {
		t.Fatalf("claimed member expired: %d members", n)
	}
}

// TestRestoredTargetServedBeforeRebalance: a restored member's target
// is its last pushed one, available to polls even before any client
// re-registers (polls require registration, so check via status).
func TestRestoredTargetsMatchJournal(t *testing.T) {
	dir := t.TempDir()
	srv1, sock1 := startJournaledServer(t, 8, dir, ServerConfig{})
	c, err := Dial("unix", sock1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("a", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("b", 8); err != nil {
		t.Fatal(err)
	}
	before := journalMembers(t, dir)
	srv1.Close()

	srv2, _ := startJournaledServer(t, 8, dir, ServerConfig{})
	targets := srv2.coord.Targets()
	for _, m := range before {
		if got, ok := targets[m.Name]; !ok || got != m.Target {
			t.Errorf("restored target for %s: got %d (%v), journal says %d", m.Name, got, ok, m.Target)
		}
	}
}

// TestJournalStateSnapshotRoundTrip: a snapshot written from live state
// recovers to that state with zero records replayed on top.
func TestJournalStateSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, sock := startJournaledServer(t, 8, dir, ServerConfig{})
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RegisterWeighted("web", 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetExternalLoad(1); err != nil {
		t.Fatal(err)
	}

	st := srv.JournalState(time.Now().UnixMicro())
	if err := srv.coord.Journal().WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	res, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 0 {
		t.Errorf("replayed %d records on top of a fresh snapshot", res.Replayed)
	}
	if !reflect.DeepEqual(res.State.Members, st.Members) ||
		res.State.Capacity != st.Capacity || res.State.External != st.External {
		t.Errorf("snapshot round trip\n wrote %+v\n got   %+v", st, res.State)
	}
}

// TestJournalDetached: a coordinator without SetJournal journals
// nothing and keeps working (the pre-durability behavior).
func TestJournalDetached(t *testing.T) {
	c := New(4)
	m := &fakeMember{name: "solo", workers: 4}
	c.Register(m)
	if got := m.got(); got != 4 {
		t.Fatalf("solo target %d, want 4", got)
	}
	if c.Journal() != nil {
		t.Fatal("journal attached without SetJournal")
	}
}
