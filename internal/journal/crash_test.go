package journal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// buildJournal writes a journal with churny membership traffic and
// optional snapshots, returning the state after every appended record —
// prefixStates[i] is the registry after i records — so a crash-point
// test can check recovery lands exactly on some valid prefix.
func buildJournal(t *testing.T, dir string, records int, opts Options) []State {
	t.Helper()
	w, err := Open(dir, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0xC0FFEE))
	var live State
	states := []State{live.Clone()}
	apps := []string{"web", "batch", "cron", "ml", "idx"}
	for i := 0; i < records; i++ {
		app := apps[rng.Intn(len(apps))]
		var r Record
		switch rng.Intn(6) {
		case 0:
			r = Record{Kind: KindRegister, App: app, A: int64(1 + rng.Intn(8)), B: int64(1 + rng.Intn(3))}
		case 1:
			r = Record{Kind: KindUnregister, App: app}
		case 2:
			r = Record{Kind: KindTarget, App: app, A: int64(rng.Intn(16))}
		case 3:
			r = Record{Kind: KindRebalance, A: int64(rng.Intn(100)), B: int64(rng.Intn(5))}
		case 4:
			r = Record{Kind: KindSetLoad, A: int64(rng.Intn(4))}
		case 5:
			r = Record{Kind: KindLeaseExpiry, App: app, A: 1}
		}
		r.At = int64(1000 + i)
		seq, err := w.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Seq = seq
		live.Apply(r)
		states = append(states, live.Clone())
		if w.ShouldSnapshot() {
			if err := w.WriteSnapshot(live.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return states
}

// cloneDir copies a journal directory so each corruption trial starts
// from the same pristine bytes.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkValidPrefix asserts that recovery of dir yields exactly one of
// the prefix states (at or past minPrefix), and that Repair makes a
// second recovery clean and identical.
func checkValidPrefix(t *testing.T, dir string, states []State, minPrefix int, what string) {
	t.Helper()
	res, err := Recover(dir)
	if err != nil {
		t.Fatalf("%s: Recover: %v", what, err)
	}
	idx := int(res.State.LastSeq)
	if idx >= len(states) {
		t.Fatalf("%s: recovered past the end: LastSeq=%d of %d records", what, res.State.LastSeq, len(states)-1)
	}
	if idx < minPrefix {
		t.Fatalf("%s: recovered prefix %d shorter than guaranteed %d", what, idx, minPrefix)
	}
	if !sameState(res.State, states[idx]) {
		t.Fatalf("%s: recovered state is not the prefix-%d state\n got %+v\nwant %+v",
			what, idx, res.State, states[idx])
	}
	if res.NextSeq != uint64(idx)+1 {
		t.Fatalf("%s: NextSeq=%d, want %d", what, res.NextSeq, idx+1)
	}

	// Repair, then recover again: must be clean and byte-for-byte equal.
	if err := Repair(dir, res); err != nil {
		t.Fatalf("%s: Repair: %v", what, err)
	}
	res2, err := Recover(dir)
	if err != nil {
		t.Fatalf("%s: Recover after Repair: %v", what, err)
	}
	if res2.Dirty() {
		t.Fatalf("%s: still dirty after Repair: %v", what, res2.Notes)
	}
	if !reflect.DeepEqual(res2.State, res.State) || res2.NextSeq != res.NextSeq {
		t.Fatalf("%s: Repair changed the recovered state", what)
	}
}

// TestCrashPointTruncation simulates a crash at every byte boundary of
// a single-segment journal: however much of the tail is lost, recovery
// must land on a valid record prefix, never panic, and Repair must be
// idempotent.
func TestCrashPointTruncation(t *testing.T) {
	pristine := t.TempDir()
	states := buildJournal(t, pristine, 40, Options{SegmentBytes: 1 << 30})
	_, segs, _ := listDir(pristine)
	if len(segs) != 1 {
		t.Fatalf("expected a single segment, got %d", len(segs))
	}
	fi, _ := os.Stat(filepath.Join(pristine, segs[0].name))
	size := fi.Size()

	// Every truncation point would be ~7k trials; step through a prime
	// stride plus always the frame-boundary-adjacent region at the tail.
	for cut := int64(0); cut < size; cut += 13 {
		dir := cloneDir(t, pristine)
		if err := os.Truncate(filepath.Join(dir, segs[0].name), cut); err != nil {
			t.Fatal(err)
		}
		checkValidPrefix(t, dir, states, 0, fmt.Sprintf("truncate@%d", cut))
	}
}

// TestCrashPointBitFlips flips single bits at seeded random offsets.
// A flip damages exactly one frame; recovery keeps everything before
// it and discards the rest (valid prefix, no panic).
func TestCrashPointBitFlips(t *testing.T) {
	pristine := t.TempDir()
	states := buildJournal(t, pristine, 40, Options{SegmentBytes: 1 << 30})
	_, segs, _ := listDir(pristine)
	path := segs[0].name
	data, _ := os.ReadFile(filepath.Join(pristine, path))

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		off := rng.Intn(len(data))
		bit := byte(1 << rng.Intn(8))
		dir := cloneDir(t, pristine)
		mut := append([]byte(nil), data...)
		mut[off] ^= bit
		if err := os.WriteFile(filepath.Join(dir, path), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		checkValidPrefix(t, dir, states, 0, fmt.Sprintf("bitflip@%d/%#x", off, bit))
	}
}

// TestCrashPointZeroedRuns blanks a run of bytes (a lost disk sector)
// at seeded offsets.
func TestCrashPointZeroedRuns(t *testing.T) {
	pristine := t.TempDir()
	states := buildJournal(t, pristine, 40, Options{SegmentBytes: 1 << 30})
	_, segs, _ := listDir(pristine)
	path := segs[0].name
	data, _ := os.ReadFile(filepath.Join(pristine, path))

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		off := rng.Intn(len(data))
		n := 1 + rng.Intn(64)
		if off+n > len(data) {
			n = len(data) - off
		}
		dir := cloneDir(t, pristine)
		mut := append([]byte(nil), data...)
		for i := 0; i < n; i++ {
			mut[off+i] = 0
		}
		if err := os.WriteFile(filepath.Join(dir, path), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		checkValidPrefix(t, dir, states, 0, fmt.Sprintf("zero@%d+%d", off, n))
	}
}

// TestCrashPointMultiSegment corrupts a middle segment of a rotated
// journal with snapshots: recovery must keep the snapshot-covered
// prefix (the snapshot floor is guaranteed even when a later segment
// is damaged) and drop every segment past the break.
func TestCrashPointMultiSegment(t *testing.T) {
	pristine := t.TempDir()
	states := buildJournal(t, pristine, 120, Options{SegmentBytes: 512, SnapshotEvery: 40, Retain: 4})
	snaps, segs, _ := listDir(pristine)
	if len(segs) < 3 || len(snaps) < 1 {
		t.Fatalf("test wants a rotated journal with snapshots: %d segs %d snaps", len(segs), len(snaps))
	}
	// The newest snapshot's LastSeq is the floor: damage to any segment
	// holding only later records cannot shorten recovery below it.
	floor := int(snaps[len(snaps)-1].seq)

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		seg := segs[rng.Intn(len(segs))]
		dir := cloneDir(t, pristine)
		path := filepath.Join(dir, seg.name)
		data, _ := os.ReadFile(path)
		if len(data) == 0 {
			continue
		}
		min := 0
		if int(seg.seq) > floor {
			min = floor
		}
		off := rng.Intn(len(data))
		data[off] ^= 0xff
		os.WriteFile(path, data, 0o644)
		checkValidPrefix(t, dir, states, min, fmt.Sprintf("seg %s byte %d", seg.name, off))
	}
}

// TestRecoverGarbageFiles feeds fsck entirely bogus directory contents:
// wrong magic, random bytes, empty files, a directory where a segment
// name could be. Recovery must never panic and must report an empty
// (or prefix) registry.
func TestRecoverGarbageFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		junk := make([]byte, rng.Intn(4096))
		rng.Read(junk)
		os.WriteFile(filepath.Join(dir, segmentName(1)), junk, 0o644)
		snapJunk := make([]byte, rng.Intn(1024))
		rng.Read(snapJunk)
		os.WriteFile(filepath.Join(dir, snapshotName(9)), snapJunk, 0o644)
		os.WriteFile(filepath.Join(dir, "README"), []byte("not a journal file"), 0o644)
		os.Mkdir(filepath.Join(dir, "subdir"), 0o755)

		res, err := Recover(dir)
		if err != nil {
			t.Fatalf("garbage trial %d: %v", trial, err)
		}
		if err := Repair(dir, res); err != nil {
			t.Fatalf("garbage trial %d: Repair: %v", trial, err)
		}
		res2, err := Recover(dir)
		if err != nil || res2.Dirty() {
			t.Fatalf("garbage trial %d: not clean after Repair: %v %v", trial, err, res2.Notes)
		}
	}
}

// TestRecoverMissingDir treats a nonexistent directory as an empty
// journal.
func TestRecoverMissingDir(t *testing.T) {
	res, err := Recover(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if res.NextSeq != 1 || len(res.State.Members) != 0 || res.Dirty() {
		t.Errorf("missing dir: %+v", res)
	}
}
