package flight

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// eagerRecorder is the recorder as it was before its storage followed
// its contents — the whole ring allocated in the constructor — kept
// verbatim as the oracle: same capacity, same answers, at every step.
type eagerRecorder struct {
	mu   sync.Mutex
	buf  []Event // fixed at construction; len(buf) is the capacity
	next uint64  // total events ever appended
}

func newEager(size int) *eagerRecorder {
	if size < 1 {
		size = 1
	}
	return &eagerRecorder{buf: make([]Event, size)}
}

func (r *eagerRecorder) Append(ev Event) {
	r.mu.Lock()
	ev.Seq = r.next
	r.buf[int(r.next%uint64(len(r.buf)))] = ev
	r.next++
	r.mu.Unlock()
}

func (r *eagerRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

func (r *eagerRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(len(r.buf)) {
		return 0
	}
	return r.next - uint64(len(r.buf))
}

func (r *eagerRecorder) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

func (r *eagerRecorder) Snapshot(limit int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	size := uint64(len(r.buf))
	have := n
	if have > size {
		have = size
	}
	if limit > 0 && uint64(limit) < have {
		have = uint64(limit)
	}
	out := make([]Event, have)
	start := n - have
	for i := uint64(0); i < have; i++ {
		out[i] = r.buf[(start+i)%size]
	}
	return out
}

// TestRecorderMatchesEagerRing runs seeded programs of appends and reads
// against both recorders: sizes from 1 to 5000 (and the clamped ones
// below), programs long enough to wrap small rings many times and short
// enough to leave big ones still growing, reads between any two appends.
func TestRecorderMatchesEagerRing(t *testing.T) {
	kinds := []string{KindRegister, KindTarget, KindApply, KindRebalance}
	apps := []string{"", "", "fleet-member-1", "fleet-member-2", "matmul"}
	wrapped, growing := 0, 0
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(200) // small rings wrap often
		switch seed % 4 {
		case 0:
			size = 1 + rng.Intn(5000)
		case 1:
			size = int(seed/4) - 2 // -2 … 57: the clamp, and sizes around firstAlloc
		}
		got, want := New(size), newEager(size)
		name := fmt.Sprintf("seed %d size %d", seed, size)
		check := func(step int) {
			t.Helper()
			if got.Cap() != want.Cap() || got.Total() != want.Total() || got.Dropped() != want.Dropped() {
				t.Fatalf("%s step %d: Cap/Total/Dropped = %d/%d/%d, eager ring %d/%d/%d", name, step,
					got.Cap(), got.Total(), got.Dropped(), want.Cap(), want.Total(), want.Dropped())
			}
			limit := 1 + rng.Intn(8)
			switch rng.Intn(8) {
			case 0:
				limit = 0
			case 1:
				limit = -1
			case 2:
				limit = rng.Intn(2*want.Cap() + 2)
			}
			if g, w := got.Snapshot(limit), want.Snapshot(limit); !slices.Equal(g, w) {
				t.Fatalf("%s step %d: Snapshot(%d) returned %d events, eager ring %d, and they differ",
					name, step, limit, len(g), len(w))
			}
		}
		check(0)
		steps := rng.Intn(3 * want.Cap())
		switch rng.Intn(3) {
		case 0:
			steps = rng.Intn(12000)
		case 1:
			steps = rng.Intn(want.Cap() + 1) // ends before the first wrap
		}
		for i := 1; i <= steps; i++ {
			ev := Event{At: rng.Int63n(1e9), Kind: kinds[rng.Intn(len(kinds))], App: apps[rng.Intn(len(apps))],
				A: int64(i), B: rng.Int63n(100), Epoch: uint64(rng.Intn(5))}
			got.Append(ev)
			want.Append(ev)
			if rng.Intn(1+steps/40) == 0 || i == want.Cap() || i == want.Cap()+1 {
				check(i)
			}
		}
		check(steps + 1)
		if want.Dropped() > 0 {
			wrapped++
		} else if steps > firstAlloc {
			growing++
		}
	}
	if wrapped < 50 || growing < 50 {
		t.Errorf("programs ending wrapped/still growing: %d/%d, want at least 50 of each", wrapped, growing)
	}
}
