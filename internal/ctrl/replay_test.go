package ctrl_test

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"procctl/internal/ctrl"
	"procctl/internal/journal"
	"procctl/internal/runtime/coordinator"
)

// bootJournaled starts a live daemon on dir exactly the way procctld
// does: recover, restore, open, attach, rebalance. It returns the
// server and socket path; cleanup shuts down quietly (registry kept).
func bootJournaled(t *testing.T, capacity int, dir string) (*coordinator.Server, string) {
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
	coord := coordinator.New(capacity)
	srv := coordinator.NewServerWith(coord, ln, coordinator.ServerConfig{})
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

func dial(t *testing.T, sock string) *coordinator.Client {
	t.Helper()
	c, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustDiff(t *testing.T, dir string, capacity int) *ctrl.DiffResult {
	t.Helper()
	base, recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl.DiffJournal(base, recs, capacity)
}

// TestDiffJournalLiveParity is the harness's core property: every
// target decision a live daemon journals is reproduced, in order, by
// the sim replay of the same record stream.
func TestDiffJournalLiveParity(t *testing.T) {
	dir := t.TempDir()
	_, sock := bootJournaled(t, 8, dir)
	c := dial(t, sock)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.RegisterWeighted("web", 6, 2)
	must(err)
	_, err = c.Register("batch", 6)
	must(err)
	must(c.SetExternalLoad(2))
	_, err = c.Register("cron", 3)
	must(err)
	must(c.SetExternalLoad(0))
	must(c.Unregister("batch"))
	_, err = c.RegisterWeighted("web", 4, 1) // re-register: weight and order change
	must(err)

	d := mustDiff(t, dir, 8)
	if !d.OK() {
		t.Fatalf("live/replay diverged: %+v", d.Mismatches)
	}
	if d.Decisions == 0 || d.Scans < 5 {
		t.Fatalf("diff exercised too little: %d decisions over %d scans", d.Decisions, d.Scans)
	}
}

// TestDiffJournalAcrossRestart replays a journal spanning a daemon
// restart: the restart record re-sorts the sim's tie-break order the
// same way the recovering daemon re-seats its members.
func TestDiffJournalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, sock1 := bootJournaled(t, 8, dir)
	c := dial(t, sock1)
	if _, err := c.Register("zeta", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterWeighted("alpha", 5, 3); err != nil {
		t.Fatal(err)
	}
	srv1.Close() // quiet: registry survives in the journal

	_, sock2 := bootJournaled(t, 8, dir)
	c2 := dial(t, sock2)
	if _, err := c2.Register("mid", 4); err != nil {
		t.Fatal(err)
	}
	if err := c2.SetExternalLoad(1); err != nil {
		t.Fatal(err)
	}

	d := mustDiff(t, dir, 8)
	if !d.OK() {
		t.Fatalf("restart replay diverged: %+v", d.Mismatches)
	}
	if d.Decisions == 0 {
		t.Fatal("restart replay checked no decisions")
	}
}

// TestDiffJournalDetectsTamper proves the diff is not vacuous: altering
// one recorded decision must surface a mismatch.
func TestDiffJournalDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	_, sock := bootJournaled(t, 8, dir)
	c := dial(t, sock)
	if _, err := c.Register("a", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("b", 8); err != nil {
		t.Fatal(err)
	}

	base, recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for i := range recs {
		if recs[i].Kind == journal.KindTarget {
			recs[i].A++ // the daemon "decided" something the policy would not
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no target record to tamper with")
	}
	if d := ctrl.DiffJournal(base, recs, 8); d.OK() {
		t.Fatal("tampered decision went undetected")
	}
}

// TestDiffJournalSnapshotAnchor: a replay anchored at a snapshot taken
// at a restart boot (members name-sorted, matching the daemon's
// re-seated order) stays exact for the records that follow.
func TestDiffJournalSnapshotAnchor(t *testing.T) {
	dir := t.TempDir()
	srv1, sock1 := bootJournaled(t, 8, dir)
	c := dial(t, sock1)
	if _, err := c.Register("b", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("a", 6); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2, sock2 := bootJournaled(t, 8, dir)
	// Snapshot right after boot: members are name-sorted on both sides.
	st := srv2.JournalState(time.Now().UnixMicro())
	if err := srv2.Coordinator().Journal().WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, sock2)
	if _, err := c2.Register("c", 4); err != nil {
		t.Fatal(err)
	}
	if err := c2.SetExternalLoad(2); err != nil {
		t.Fatal(err)
	}

	d := mustDiff(t, dir, 8)
	if !d.OK() {
		t.Fatalf("snapshot-anchored replay diverged: %+v", d.Mismatches)
	}
}

// TestDiffJournalMixedVersions feeds a hand-built journal whose prefix
// was written by an epoch-less v1 daemon and whose suffix was written
// after an upgrade to epoch-stamped v2 records. The diff must line the
// two halves up seamlessly: synthetic epochs for the v1 prefix continue
// into the stamped suffix because the v2 daemon stamps the same running
// rebalance count the replay reconstructs.
func TestDiffJournalMixedVersions(t *testing.T) {
	recs := []journal.Record{
		// v1 prefix: no epoch fields anywhere.
		{Seq: 1, Kind: journal.KindSetCapacity, A: 8},
		{Seq: 2, Kind: journal.KindRebalance},
		{Seq: 3, Kind: journal.KindRegister, App: "web", A: 6, B: 1},
		{Seq: 4, Kind: journal.KindRebalance},
		{Seq: 5, Kind: journal.KindTarget, App: "web", A: 6, B: 0},
		{Seq: 6, Kind: journal.KindRegister, App: "batch", A: 6, B: 1},
		{Seq: 7, Kind: journal.KindRebalance},
		{Seq: 8, Kind: journal.KindTarget, App: "web", A: 4, B: 6},
		{Seq: 9, Kind: journal.KindTarget, App: "batch", A: 4, B: 0},
		// v2 suffix: the upgraded daemon continues the epoch count (three
		// rebalances so far, so the next is 4).
		{Seq: 10, Kind: journal.KindSetLoad, A: 2},
		{Seq: 11, Kind: journal.KindRebalance, Epoch: 4},
		{Seq: 12, Kind: journal.KindTarget, App: "web", A: 3, B: 4, Epoch: 4},
		{Seq: 13, Kind: journal.KindTarget, App: "batch", A: 3, B: 4, Epoch: 4},
		{Seq: 14, Kind: journal.KindUnregister, App: "batch", A: 3},
		{Seq: 15, Kind: journal.KindRebalance, Epoch: 5},
		{Seq: 16, Kind: journal.KindTarget, App: "web", A: 6, B: 3, Epoch: 5},
	}
	res := ctrl.DiffJournal(journal.State{}, recs, 8)
	if !res.OK() {
		t.Fatalf("mixed-version journal diverged: %+v", res.Mismatches)
	}
	if res.Decisions != 6 || res.Scans != 5 {
		t.Fatalf("decisions=%d scans=%d, want 6 and 5", res.Decisions, res.Scans)
	}
}
