package flight

import (
	"sync"
	"testing"
)

func TestAppendAndSnapshotOrder(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Append(Event{At: int64(100 + i), Kind: KindRegister, App: "a", A: int64(i)})
	}
	evs := r.Snapshot(0)
	if len(evs) != 5 {
		t.Fatalf("Snapshot returned %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i)
		}
		if ev.At != int64(100+i) {
			t.Errorf("event %d: at %d, want %d", i, ev.At, 100+i)
		}
	}
	if r.Total() != 5 || r.Dropped() != 0 {
		t.Errorf("Total/Dropped = %d/%d, want 5/0", r.Total(), r.Dropped())
	}
}

func TestWraparoundKeepsNewestOldestFirst(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Append(Event{At: int64(i)})
	}
	evs := r.Snapshot(0)
	if len(evs) != 4 {
		t.Fatalf("Snapshot returned %d events, want capacity 4", len(evs))
	}
	// The survivors are events 6..9, oldest first, with original seqs.
	for i, ev := range evs {
		want := uint64(6 + i)
		if ev.Seq != want || ev.At != int64(want) {
			t.Errorf("event %d: seq/at = %d/%d, want %d/%d", i, ev.Seq, ev.At, want, want)
		}
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	if got := r.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
}

func TestSnapshotLimit(t *testing.T) {
	r := New(16)
	for i := 0; i < 10; i++ {
		r.Append(Event{At: int64(i)})
	}
	evs := r.Snapshot(3)
	if len(evs) != 3 {
		t.Fatalf("Snapshot(3) returned %d events", len(evs))
	}
	if evs[0].Seq != 7 || evs[2].Seq != 9 {
		t.Errorf("Snapshot(3) seqs = %d..%d, want 7..9", evs[0].Seq, evs[2].Seq)
	}
	if got := len(New(4).Snapshot(3)); got != 0 {
		t.Errorf("empty recorder Snapshot returned %d events", got)
	}
}

func TestMinimumCapacity(t *testing.T) {
	r := New(0)
	if r.Cap() != 1 {
		t.Fatalf("Cap = %d, want clamped 1", r.Cap())
	}
	r.Append(Event{At: 1})
	r.Append(Event{At: 2})
	evs := r.Snapshot(0)
	if len(evs) != 1 || evs[0].At != 2 {
		t.Errorf("size-1 ring kept %+v, want the latest event", evs)
	}
}

// TestAppendZeroAlloc is the acceptance gate: steady-state appends —
// including ones carrying strings — must not allocate. The ring grows to
// its capacity first; from then on it and its mutex are the only storage.
func TestAppendZeroAlloc(t *testing.T) {
	r := New(64)
	ev := Event{At: 1, Kind: KindTarget, App: "fleet-member-42", A: 7, B: 3}
	for i := 0; i < r.Cap(); i++ {
		r.Append(ev)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Append(ev) }); allocs != 0 {
		t.Errorf("Append allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkRecorderAppend is one event into the always-on ring.
func BenchmarkRecorderAppend(b *testing.B) {
	b.ReportAllocs()
	rec := New(DefaultSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Append(Event{At: int64(i), Kind: KindTarget, App: "bench", A: 8, B: 4})
	}
}

// TestGrowthIsADozenAllocations bounds what reaching the capacity costs:
// a recorder nothing was appended to has no array at all, and the array
// doubles, so a DefaultSize ring is complete after nine allocations.
func TestGrowthIsADozenAllocations(t *testing.T) {
	r := New(DefaultSize)
	if cap(r.buf) != 0 {
		t.Errorf("New allocated an array of %d events before any was appended", cap(r.buf))
	}
	arrays, last := 0, 0
	for i := 0; i < 2*DefaultSize; i++ {
		r.Append(Event{At: int64(i)})
		if c := cap(r.buf); c != last {
			if c > DefaultSize || (last > 0 && c != 2*last) {
				t.Fatalf("ring array went from %d to %d events (capacity %d)", last, c, DefaultSize)
			}
			arrays, last = arrays+1, c
		}
	}
	if arrays > 12 || last != DefaultSize {
		t.Errorf("%d allocations for an array of %d events, want at most a dozen to reach %d", arrays, last, DefaultSize)
	}
}

// TestConcurrentAppend drives appends from many goroutines under -race
// — all of them while the ring is still growing, so the reallocation
// happens under contention; every sequence number must come out exactly
// once.
func TestConcurrentAppend(t *testing.T) {
	const goroutines, per = 8, 500
	r := New(goroutines * per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Append(Event{At: int64(i), Kind: KindApply})
			}
		}()
	}
	wg.Wait()
	evs := r.Snapshot(0)
	if len(evs) != goroutines*per {
		t.Fatalf("kept %d events, want %d", len(evs), goroutines*per)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: sequence numbers must be dense and ordered", i, ev.Seq)
		}
	}
}
