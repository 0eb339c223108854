package coordinator

import (
	"cmp"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"procctl/internal/journal"
)

// bootJournaledServer boots a server of capacity 8 on ln the way procctld
// does (Server.Boot) and serves; stop closes the server, then its journal.
func bootJournaledServer(t *testing.T, dir string, ln net.Listener) (srv *Server, stop func()) {
	t.Helper()
	srv = NewServer(New(8), ln)
	if _, err := srv.Boot(dir, journal.Options{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return srv, func() {
		srv.Close()
		srv.coord.Journal().Close()
	}
}

// startJournaledServer is bootJournaledServer on a unix socket, stopped
// at cleanup.
func startJournaledServer(t *testing.T, dir string) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv, stop := bootJournaledServer(t, dir, ln)
	t.Cleanup(stop)
	return srv, sock
}

// Boot's records go ahead of its first decision: a restart record when
// it restored members, then the capacity as New resolved it, then the
// rebalance. A snapshot of no member still restores its external load.
func TestBootRecordOrder(t *testing.T) {
	dir := t.TempDir()
	for i, want := range []struct {
		capacity, journaled, external int
		kinds                         []string
	}{
		{0, runtime.GOMAXPROCS(0), 0, []string{journal.KindSetCapacity, journal.KindRebalance}}, // an empty directory
		{3, 3, 2, []string{journal.KindSetCapacity, journal.KindRebalance}},                     // a snapshot of no member
		{3, 3, 2, []string{journal.KindRestart, journal.KindSetCapacity, journal.KindRebalance}},
	} {
		srv := NewServer(New(want.capacity), newPipeListener())
		res, err := srv.Boot(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		w := srv.coord.Journal()
		_, recs, err := journal.ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		booted := recs[len(recs)-int(w.NextSeq()-res.NextSeq):]
		var kinds []string
		for _, r := range booted[:min(len(booted), len(want.kinds))] {
			kinds = append(kinds, r.Kind)
		}
		if !slices.Equal(kinds, want.kinds) || booted[len(kinds)-2].A != int64(want.journaled) || srv.coord.ExternalLoad() != want.external {
			t.Fatalf("boot %d appended %v first, capacity record %+v, external load %d; want %v, capacity %d, external load %d",
				i, kinds, booted[len(kinds)-2], srv.coord.ExternalLoad(), want.kinds, want.journaled, want.external)
		}
		if i == 0 {
			srv.coord.SetExternalLoad(2)
			err = w.WriteSnapshot(srv.JournalState(0))
		} else {
			srv.coord.RegisterWeighted(&fakeMember{name: "m", workers: 2}, 1) // restored at the next boot
		}
		if err = cmp.Or(err, w.Close()); err != nil {
			t.Fatal(err)
		}
	}
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
	_, sock := startJournaledServer(t, dir)

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

// TestRestartRecoversRegistry restarts a daemon on the same journal dir
// and checks the registry comes back without any client traffic. A clean
// shutdown journals nothing: its Close-path unregisters are quiet, so the
// journal holds the membership for the next incarnation. A restored
// member's target is its last pushed one, served before any rebalance.
func TestRestartRecoversRegistry(t *testing.T) {
	dir := t.TempDir()
	srv1, sock1 := startJournaledServer(t, dir)
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
	if shut := journalMembers(t, dir); !reflect.DeepEqual(before, shut) {
		t.Fatalf("clean shutdown changed the journal\n before %+v\n after  %+v", before, shut)
	}
	c.Close()

	srv2, _ := startJournaledServer(t, dir)
	targets := srv2.coord.Targets()
	for _, m := range before {
		if got, ok := targets[m.Name]; !ok || got != m.Target {
			t.Errorf("restored target for %s: got %d (%v), journal says %d", m.Name, got, ok, m.Target)
		}
	}
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

// TestJournalStateSnapshotRoundTrip: a snapshot written from live state
// recovers to that state with zero records replayed on top.
func TestJournalStateSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, sock := startJournaledServer(t, dir)
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
