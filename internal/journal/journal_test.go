package journal

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"procctl/internal/flight"
	"procctl/internal/metrics"
)

// sampleRecords covers every kind plus the omitempty edge cases.
func sampleRecords() []Record {
	return []Record{
		{Seq: 1, At: 1000, Kind: KindRegister, App: "web", A: 4, B: 2},
		{Seq: 2, At: 1001, Kind: KindRebalance, A: 37, B: 1},
		{Seq: 3, At: 1002, Kind: KindTarget, App: "web", A: 8},
		{Seq: 4, At: 1003, Kind: KindSetLoad, A: 3},
		{Seq: 5, At: 1004, Kind: KindSetCapacity, A: 16},
		{Seq: 6, At: 1005, Kind: KindLeaseExpiry, App: "web", B: 1},
		{Seq: 7, At: 1006, Kind: KindUnregister, App: "batch"},
		{Seq: 8, At: 1007, Kind: KindRestart, A: 2, B: 128},
		{Seq: 9, At: 0, Kind: KindTarget, App: "a-b.c_1", A: -1, B: -2},
		{Seq: 10, At: -5, Kind: "future_kind"},
		{Seq: 11, At: 1008, Kind: KindTarget, App: "web", A: 6, B: 8, Epoch: 3},
		{Seq: 12, At: 1009, Kind: KindRebalance, A: 41, B: 2, Epoch: 4},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		got, err := DecodeRecord(flight.AppendJSON(nil, &r))
		if err != nil {
			t.Fatalf("decode(%+v): %v", r, err)
		}
		if got != r {
			t.Errorf("round trip: got %+v want %+v", got, r)
		}
	}
}

func TestDecodeRecordRejectsInvalid(t *testing.T) {
	for _, payload := range []string{
		``, `null`, `42`, `"str"`, `{}`,
		`{"seq":1}`,             // no kind
		`{"kind":"register"}`,   // no seq
		`{"seq":0,"kind":"x"}`,  // zero seq
		`{"seq":1,"kind":"x"`,   // truncated JSON
		`{"seq":-1,"kind":"x"}`, // negative seq
		`{"seq":1e999,"kind":"x"}`,
	} {
		if _, err := DecodeRecord([]byte(payload)); err == nil {
			t.Errorf("DecodeRecord(%q) accepted invalid payload", payload)
		}
	}
}

func TestFrameRoundTripAndErrors(t *testing.T) {
	payload := []byte(`{"seq":1,"at":2,"kind":"register"}`)
	frame := appendFrame(nil, payload)
	got, n, err := DecodeFrame(frame)
	if err != nil || n != len(frame) || string(got) != string(payload) {
		t.Fatalf("DecodeFrame: got %q n=%d err=%v", got, n, err)
	}

	if _, _, err := DecodeFrame(frame[:3]); err != ErrShortFrame {
		t.Errorf("short header: err=%v, want ErrShortFrame", err)
	}
	if _, _, err := DecodeFrame(frame[:len(frame)-1]); err != ErrShortFrame {
		t.Errorf("torn payload: err=%v, want ErrShortFrame", err)
	}
	flipped := append([]byte(nil), frame...)
	flipped[frameHdr] ^= 0x40
	if _, _, err := DecodeFrame(flipped); err != ErrCRC {
		t.Errorf("flipped bit: err=%v, want ErrCRC", err)
	}
	huge := make([]byte, frameHdr)
	huge[3] = 0xff // length prefix way past MaxFrame
	if _, _, err := DecodeFrame(huge); err != ErrFrameTooBig {
		t.Errorf("huge length: err=%v, want ErrFrameTooBig", err)
	}
}

func TestStateApply(t *testing.T) {
	var st State
	st.Apply(Record{Seq: 1, At: 10, Kind: KindSetCapacity, A: 8})
	st.Apply(Record{Seq: 2, At: 11, Kind: KindRegister, App: "b", A: 4, B: 2})
	st.Apply(Record{Seq: 3, At: 12, Kind: KindRegister, App: "a", A: 2, B: 1})
	st.Apply(Record{Seq: 4, At: 13, Kind: KindRebalance, A: 9, B: 2})
	st.Apply(Record{Seq: 5, At: 14, Kind: KindTarget, App: "a", A: 3})
	st.Apply(Record{Seq: 6, At: 15, Kind: KindTarget, App: "b", A: 5})
	st.Apply(Record{Seq: 7, At: 16, Kind: KindSetLoad, A: 2})
	// Re-register keeps the previously pushed target.
	st.Apply(Record{Seq: 8, At: 17, Kind: KindRegister, App: "a", A: 6, B: 1})
	st.Apply(Record{Seq: 9, At: 18, Kind: KindUnregister, App: "b", A: 5})
	st.Apply(Record{Seq: 10, At: 19, Kind: "mystery"}) // unknown kinds advance seq only

	want := State{
		Capacity: 8, External: 2, Rebalances: 1,
		Members: []Member{{Name: "a", Procs: 6, Weight: 1, Target: 3, LastSeen: 17}},
		LastSeq: 10, At: 19,
	}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("Apply: got %+v want %+v", st, want)
	}

	// Members stay name-sorted, so equal states marshal identically.
	st2 := State{Capacity: 8}
	st2.Apply(Record{Seq: 1, Kind: KindRegister, App: "z"})
	st2.Apply(Record{Seq: 2, Kind: KindRegister, App: "a"})
	st2.Apply(Record{Seq: 3, Kind: KindRegister, App: "m"})
	if st2.Members[0].Name != "a" || st2.Members[1].Name != "m" || st2.Members[2].Name != "z" {
		t.Errorf("Members not sorted: %+v", st2.Members)
	}
}

func TestWriterAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1, Options{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want State
	for _, r := range sampleRecords() {
		r.Seq = 0 // Writer assigns
		seq, err := w.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Seq = seq
		want.Apply(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dirty() {
		t.Errorf("clean journal reported dirty: %v", res.Notes)
	}
	if !sameState(res.State, want) {
		t.Errorf("recovered state\n got %+v\nwant %+v", res.State, want)
	}
	if res.NextSeq != want.LastSeq+1 {
		t.Errorf("NextSeq = %d, want %d", res.NextSeq, want.LastSeq+1)
	}
	if res.Replayed != len(sampleRecords()) {
		t.Errorf("Replayed = %d, want %d", res.Replayed, len(sampleRecords()))
	}
}

func TestWriterResumesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, 1, Options{})
	w.Append(Record{At: 1, Kind: KindRegister, App: "a", A: 1})
	w.Append(Record{At: 2, Kind: KindTarget, App: "a", A: 4})
	w.Close()

	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, res.NextSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w2.Append(Record{At: 3, Kind: KindSetLoad, A: 9})
	if err != nil || seq != 3 {
		t.Fatalf("resumed append: seq=%d err=%v, want 3", seq, err)
	}
	w2.Close()

	res2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res2.State.External != 9 || res2.State.LastSeq != 3 || len(res2.State.Members) != 1 {
		t.Errorf("state after reopen: %+v", res2.State)
	}
	if res2.Dirty() {
		t.Errorf("reopened journal dirty: %v", res2.Notes)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, 1, Options{SegmentBytes: 256, SyncEvery: 1 << 20})
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := w.Append(Record{At: int64(i), Kind: KindSetLoad, A: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	_, segs, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != n || res.State.External != n-1 || res.NextSeq != n+1 {
		t.Errorf("multi-segment recovery: replayed=%d external=%d next=%d",
			res.Replayed, res.State.External, res.NextSeq)
	}
}

func TestSnapshotAndPrune(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	w, _ := Open(dir, 1, Options{SnapshotEvery: 10, Retain: 2, Metrics: reg})
	var live State
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			r := Record{At: int64(live.LastSeq + 1), Kind: KindSetLoad, A: int64(i)}
			seq, err := w.Append(r)
			if err != nil {
				t.Fatal(err)
			}
			r.Seq = seq
			live.Apply(r)
			if w.ShouldSnapshot() {
				if err := w.WriteSnapshot(live.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	appendN(10)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if snaps, _, _ := listDir(dir); len(snaps) != 1 {
		t.Fatalf("expected 1 snapshot after first cadence, got %d", len(snaps))
	}
	// Before Retain snapshots exist, every segment must survive (the
	// record stream stays replayable from genesis for the diff harness).
	if _, segs, _ := listDir(dir); len(segs) < 2 {
		t.Fatalf("first snapshot pruned segments it must retain: %d", len(segs))
	}

	appendN(30)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	snaps, segs, _ := listDir(dir)
	if len(snaps) != 2 {
		t.Fatalf("Retain=2: got %d snapshots", len(snaps))
	}
	// Pruning must never orphan the retained snapshots: the oldest
	// retained snapshot still anchors a contiguous stream to the tip.
	anchor := snaps[0].seq
	if segs[0].seq > anchor+1 {
		t.Errorf("pruned past the anchor: first segment %d, anchor %d", segs[0].seq, anchor)
	}

	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(res.State, live) {
		t.Errorf("snapshot+replay state\n got %+v\nwant %+v", res.State, live)
	}

	// ReadAll still yields a contiguous stream from its base.
	base, recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	replay := base.Clone()
	next := base.LastSeq + 1
	for _, r := range recs {
		if r.Seq != next {
			t.Fatalf("ReadAll stream gap at %d (want %d)", r.Seq, next)
		}
		replay.Apply(r)
		next++
	}
	if !reflect.DeepEqual(replay, live) {
		t.Errorf("ReadAll replay\n got %+v\nwant %+v", replay, live)
	}

	// The last append brought a cut due, so a second cut with no record
	// between is a no-op, as is one at the snapshot Recover starts from:
	// neither rotates a segment nor writes a snapshot.
	listing := func() (names []string) {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			info, _ := e.Info()
			names = append(names, fmt.Sprintf("%s %d %v", e.Name(), info.Size(), info.ModTime()))
		}
		return names
	}
	written, _ := reg.Value("journal_snapshots_total")
	before := listing()
	if err := cmp.Or(w.WriteSnapshot(live.Clone()), w.Close()); err != nil {
		t.Fatal(err)
	}
	if n, _ := reg.Value("journal_snapshots_total"); n != written || !slices.Equal(listing(), before) {
		t.Errorf("a cut at the newest cut's position wrote %d snapshots; directory %v, was %v", n-written, listing(), before)
	}
	if res, err = Recover(dir); err != nil {
		t.Fatal(err)
	}
	reg2 := metrics.NewRegistry()
	w2, err := res.Open(dir, Options{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	before = listing()
	if err := cmp.Or(w2.WriteSnapshot(res.State), w2.Close()); err != nil {
		t.Fatal(err)
	}
	if n, _ := reg2.Value("journal_snapshots_total"); n != 0 || !slices.Equal(listing(), before) {
		t.Errorf("a cut at the recovered snapshot's position wrote %d snapshots; directory %v, was %v", n, listing(), before)
	}
}

func TestSnapshotFallbackWhenNewestCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, 1, Options{})
	var live State
	for i := 0; i < 5; i++ {
		r := Record{At: int64(i), Kind: KindRegister, App: "app", A: int64(i + 1), B: 1}
		seq, _ := w.Append(r)
		r.Seq = seq
		live.Apply(r)
	}
	if err := w.WriteSnapshot(live.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil { // else the next cut may supersede this one unwritten
		t.Fatal(err)
	}
	mid := live.Clone()
	for i := 0; i < 5; i++ {
		r := Record{At: int64(10 + i), Kind: KindSetLoad, A: int64(i)}
		seq, _ := w.Append(r)
		r.Seq = seq
		live.Apply(r)
	}
	if err := w.WriteSnapshot(live.Clone()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_ = mid

	// Corrupt the newest snapshot; recovery must fall back to the older
	// one and reach the same final state by replaying the segments.
	snaps, _, _ := listDir(dir)
	newest := filepath.Join(dir, snaps[len(snaps)-1].name)
	data, _ := os.ReadFile(newest)
	data[len(data)-1] ^= 0xff
	os.WriteFile(newest, data, 0o644)

	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotSeq != snaps[0].seq {
		t.Errorf("fell back to snapshot %d, want %d", res.SnapshotSeq, snaps[0].seq)
	}
	if !sameState(res.State, live) {
		t.Errorf("fallback recovery\n got %+v\nwant %+v", res.State, live)
	}
}

func TestAppendZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, 1, Options{SyncEvery: 1 << 30, SegmentBytes: 1 << 40})
	rec := Record{At: 123456, Kind: KindTarget, App: "steady-state-app", A: 7, B: 3}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	batch := []Record{rec, rec, rec, rec, rec, rec, rec, rec}
	batchAllocs := testing.AllocsPerRun(2000, func() {
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	w.Close()
	if allocs != 0 || batchAllocs != 0 {
		t.Errorf("Append allocates %.2f/op and AppendBatch of 8 %.2f/op, want 0", allocs, batchAllocs)
	}
}

// BenchmarkJournalAppend is the daemon's durability hot path under the
// default options.
func BenchmarkJournalAppend(b *testing.B) {
	b.ReportAllocs()
	w, err := Open(b.TempDir(), 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := Record{At: 1, Kind: KindTarget, App: "bench-app", A: 7, B: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriterStickyError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{At: 1, Kind: KindSetLoad, A: 1})
	// Yank the file out from under the writer: closing the fd makes the
	// next flush+sync fail, and the failure must stick.
	w.f.Close()
	if _, err := w.Append(Record{At: 2, Kind: KindSetLoad, A: 2}); err == nil {
		t.Fatal("append after fd close succeeded")
	}
	if _, err := w.Append(Record{At: 3, Kind: KindSetLoad, A: 3}); err == nil {
		t.Fatal("sticky error did not stick")
	}
	if w.Err() == nil {
		t.Fatal("Err() nil after failure")
	}
}

// Either open repairs (physically truncates) the torn tail Recover found
// and resumes at NextSeq; a subsequent recovery sees a clean journal
// with the new record.
func TestOpenRepairsBeforeAppending(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(dir string, res *RecoverResult) (*Writer, error)
	}{
		{"Open", func(dir string, res *RecoverResult) (*Writer, error) { return Open(dir, res.NextSeq, Options{}) }},
		{"RecoverResult.Open", func(dir string, res *RecoverResult) (*Writer, error) { return res.Open(dir, Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _ := Open(dir, 1, Options{})
			for i := 0; i < 3; i++ {
				w.Append(Record{At: int64(i), Kind: KindSetLoad, A: int64(i)})
			}
			w.Close()

			// Tear the tail of the only segment mid-frame.
			_, segs, _ := listDir(dir)
			path := filepath.Join(dir, segs[0].name)
			fi, _ := os.Stat(path)
			os.Truncate(path, fi.Size()-3)

			res, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Dirty() || res.TruncatedBytes == 0 || res.Replayed != 2 {
				t.Fatalf("torn tail not detected: %+v", res)
			}

			w2, err := tc.open(dir, res)
			if err != nil {
				t.Fatal(err)
			}
			torn, _ := os.Stat(path)
			if want := fi.Size() - 3 - res.TruncatedBytes; torn.Size() != want {
				t.Fatalf("the open left the torn segment at %d bytes, want it truncated to %d", torn.Size(), want)
			}
			if seq, _ := w2.Append(Record{At: 9, Kind: KindSetLoad, A: 9}); seq != 3 {
				t.Fatalf("resumed at seq %d, want 3", seq)
			}
			w2.Close()

			res2, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Dirty() {
				t.Errorf("journal still dirty after the open's repair: %v", res2.Notes)
			}
			if res2.State.External != 9 || res2.State.LastSeq != 3 {
				t.Errorf("post-repair state: %+v", res2.State)
			}
		})
	}
}

func TestParseSeqName(t *testing.T) {
	if n, ok := parseSeqName(segmentName(42), "wal-", ".log"); !ok || n != 42 {
		t.Errorf("segmentName round trip: %d %v", n, ok)
	}
	if n, ok := parseSeqName(snapshotName(7), "snap-", ".snap"); !ok || n != 7 {
		t.Errorf("snapshotName round trip: %d %v", n, ok)
	}
	for _, bad := range []string{"wal-.log", "wal-1.log", "wal-0000000000000000000x.log", "snap-00000000000000000007.snap"} {
		if _, ok := parseSeqName(bad, "wal-", ".log"); ok {
			t.Errorf("parseSeqName accepted %q", bad)
		}
	}
}
