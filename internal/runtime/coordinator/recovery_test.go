package coordinator

import (
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"procctl/internal/journal"
)

// startJournaledServer runs a daemon on a unix socket with a journal
// attached the way procctld does at boot (see bootJournaledServer).
func startJournaledServer(t *testing.T, capacity int, dir string, cfg ServerConfig) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv, w := bootJournaledServer(t, capacity, dir, cfg, ln)
	t.Cleanup(func() {
		srv.Close()
		w.Close()
	})
	return srv, sock
}

// bootJournaledServer starts a server on ln the way procctld boots:
// recover, restore, open the journal, attach it, rebalance, serve. The
// caller closes the server and then the journal.
func bootJournaledServer(t *testing.T, capacity int, dir string, cfg ServerConfig, ln net.Listener) (*Server, *journal.Writer) {
	t.Helper()
	res, err := journal.Recover(dir)
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
	return srv, w
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
	if _, err := c.RegisterWeighted("batch", 6, 0); err != nil {
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
	if _, err := c.RegisterWeighted("keepme", 4, 0); err != nil {
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
	if _, err := c.RegisterWeighted("batch", 8, 0); err != nil {
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
	if _, err := c.RegisterWeighted("a", 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterWeighted("b", 8, 0); err != nil {
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
	c.RegisterWeighted(m, 1)
	if got := m.got(); got != 4 {
		t.Fatalf("solo target %d, want 4", got)
	}
	if c.Journal() != nil {
		t.Fatal("journal attached without SetJournal")
	}
}

// With fsync batching the drain writes and returns, and the fsync it
// makes due runs on a goroutine of its own: every record is readable at
// once, and the fsync count rises without anyone calling Sync.
func TestJournalFsyncRunsOffTheDrain(t *testing.T) {
	dir := t.TempDir()
	coord := New(8)
	w, err := journal.Open(dir, 1, journal.Options{SyncEvery: 4, Metrics: coord.Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	coord.SetJournal(w)
	for i := 1; i <= 10; i++ {
		coord.SetExternalLoad(i)
	}
	res, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(w.NextSeq() - 1); res.Replayed != want || res.State.External != 10 {
		t.Fatalf("journal holds %d records, external load %d; want %d and 10", res.Replayed, res.State.External, want)
	}
	waitFor(t, 2*time.Second, func() bool {
		n, _ := coord.Metrics().Value("journal_fsyncs_total")
		return n > 0
	}, "no background fsync ran")
}
