package journal

import (
	"errors"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"procctl/internal/metrics"
)

func loads(from, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{At: int64(from + i), Kind: KindSetLoad, A: int64(from + i)}
	}
	return recs
}

func counter(t *testing.T, reg *metrics.Registry, name string) int64 {
	t.Helper()
	v, ok := reg.Value(name)
	if !ok {
		t.Fatalf("no series %s", name)
	}
	return v
}

// A record is in the kernel when its append returns: a process killed
// right after (no Sync, no Close) leaves every acknowledged record for
// Recover, under the default fsync batching.
func TestAppendReachesKernelBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, r := range loads(1, 10) {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 10 || res.State.External != 10 || res.Dirty() {
		t.Fatalf("after a simulated kill: replayed %d records (external %d, notes %v), want all 10",
			res.Replayed, res.State.External, res.Notes)
	}
}

// With SyncEvery 1 every drain is fsynced once, before the call returns.
func TestSyncEveryOneFsyncsEachDrainBeforeReturn(t *testing.T) {
	reg := metrics.NewRegistry()
	w, err := Open(t.TempDir(), 1, Options{SyncEvery: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, n := range []int{5, 1, 64, 0, 3} {
		before := counter(t, reg, "journal_fsyncs_total")
		if err := w.AppendBatch(loads(100*i, n)); err != nil {
			t.Fatalf("drain %d: err=%v", i, err)
		}
		want := before + 1
		if n == 0 {
			want = before
		}
		if got := counter(t, reg, "journal_fsyncs_total"); got != want {
			t.Fatalf("drain %d of %d records: fsyncs %d -> %d, want %d", i, n, before, got, want)
		}
	}
	before := counter(t, reg, "journal_fsyncs_total")
	if _, err := w.Append(Record{At: 1, Kind: KindSetLoad, A: 1}); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, reg, "journal_fsyncs_total"); got != before+1 {
		t.Fatalf("Append: fsyncs %d -> %d, want one more", before, got)
	}
}

// syncing reports whether the Writer's sync goroutine runs.
func syncing(w *Writer) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncing
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// With SyncEvery above 1 no append fsyncs, and nobody need call Sync: the
// append that makes SyncEvery wait starts the Writer's sync goroutine.
// Appends made while that goroutine is held up return at once, and its
// next fsync covers them all.
func TestBatchedModeAppendsNeverFsync(t *testing.T) {
	reg := metrics.NewRegistry()
	w, err := Open(t.TempDir(), 1, Options{SyncEvery: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fsyncs := func() int64 { return counter(t, reg, "journal_fsyncs_total") }
	appendN := func(n int) {
		for _, r := range loads(1, n) {
			if _, err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if appendN(3); syncing(w) || fsyncs() != 0 {
		t.Fatalf("3 of 4: syncing=%v, %d fsyncs", syncing(w), fsyncs())
	}
	appendN(1)
	waitFor(t, func() bool { return !syncing(w) && fsyncs() == 1 }, "4 of 4 appends were not fsynced once")
	w.smu.Lock() // the sync goroutine waits here, before its fsync
	if appendN(24); !syncing(w) || fsyncs() != 1 {
		t.Fatalf("24 appends while the sync was held: syncing=%v, %d fsyncs, want a sync started and 1", syncing(w), fsyncs())
	}
	w.smu.Unlock()
	waitFor(t, func() bool { return !syncing(w) }, "the sync goroutine never finished")
	if err := w.Sync(); err != nil || fsyncs() != 3 {
		t.Fatalf("after Sync: %d fsyncs, err %v; want one for the 24 appends and one for Sync", fsyncs(), err)
	}
	if err := w.AppendBatch(loads(30, 1)); err != nil || syncing(w) {
		t.Fatalf("after Sync: syncing=%v err=%v, want no sync started", syncing(w), err)
	}
}

// Close waits for the sync goroutine: once it returns, none runs.
func TestCloseJoinsTheSyncGoroutine(t *testing.T) {
	w, err := Open(t.TempDir(), 1, Options{SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.smu.Lock() // holds the sync goroutine the appends start
	if err := w.AppendBatch(loads(1, 2)); err != nil || !syncing(w) {
		t.Fatalf("syncing=%v err=%v, want a sync started", syncing(w), err)
	}
	closed := make(chan error)
	go func() { closed <- w.Close() }()
	time.Sleep(20 * time.Millisecond)
	w.smu.Unlock()
	if err := <-closed; err != nil || syncing(w) {
		t.Fatalf("Close: %v, and its sync goroutine still runs: %v", err, syncing(w))
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Writer).syncLoop") {
		t.Fatalf("a sync goroutine outlived Close:\n%s", stacks)
	}
}

// A Sync looping beside appends that rotate segments every few records
// and cut snapshots, then racing Close, loses no record and leaves no
// error. Run it under -race.
func TestSyncRacesAppendsRotationSnapshotAndClose(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1, Options{SyncEvery: 8, SegmentBytes: 256, SnapshotEvery: 100, Retain: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var syncErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := w.Sync(); err != nil {
				if !errors.Is(err, errClosed) {
					syncErr = err
				}
				return
			}
		}
	}()
	var live State
	for next := 1; next <= n; {
		recs := loads(next, 1+next%7)
		if next+len(recs) > n+1 {
			recs = recs[:n+1-next]
		}
		if err := w.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			live.Apply(Record{Seq: uint64(next), At: r.At, Kind: r.Kind, A: r.A})
			next++
		}
		if w.ShouldSnapshot() {
			if err := w.WriteSnapshot(live.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if syncErr != nil {
		t.Fatalf("Sync: %v", syncErr)
	}
	if len(w.retired) != 0 {
		t.Errorf("%d rotated-out segments left open", len(w.retired))
	}
	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dirty() || res.NextSeq != n+1 || !sameState(res.State, live) {
		t.Fatalf("recovered next=%d external=%d notes=%v, want next=%d external=%d",
			res.NextSeq, res.State.External, res.Notes, n+1, live.External)
	}
}

// A failed fsync is sticky like a failed write: the next append returns
// it and journal_append_errors_total counts what it cost. The active
// segment is swapped for a pipe, which takes the write and refuses the
// fsync (EINVAL), as a failing disk does.
func TestFailedFsyncIsSticky(t *testing.T) {
	reg := metrics.NewRegistry()
	w, err := Open(t.TempDir(), 1, Options{SyncEvery: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, p, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seg := w.f
	defer seg.Close()
	w.f = p
	if err := w.AppendBatch(loads(1, 2)); err != nil {
		t.Fatal(err)
	}
	syncErr := w.Sync()
	if syncErr == nil {
		t.Fatal("fsync of a pipe succeeded")
	}
	if got := counter(t, reg, "journal_append_errors_total"); got != 2 {
		t.Errorf("after the failed fsync: %d errors counted, want the 2 records it held", got)
	}
	if _, err := w.Append(Record{At: 3, Kind: KindSetLoad, A: 3}); err != syncErr {
		t.Fatalf("append after a failed fsync returned %v, want %v", err, syncErr)
	}
	if got := counter(t, reg, "journal_append_errors_total"); got != 3 {
		t.Errorf("after the refused append: %d errors counted, want 3", got)
	}
	if w.Err() != syncErr || w.Sync() != syncErr || w.Close() != syncErr {
		t.Error("the fsync failure did not stick")
	}
}
