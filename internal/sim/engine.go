package sim

import (
	"fmt"
)

// The event engine is the hottest code in the repository: every figure,
// ablation, and chaos run fires millions of events through it. Four
// design choices keep the steady state allocation-free and the queue
// operations cheap; DESIGN.md's "Performance" section records the
// reasoning in full.
//
//  1. Event records live in a slab ([]event) recycled through an
//     intrusive free list, so Schedule reuses memory instead of
//     allocating, and EventID is a value (slot index + generation), not
//     a pointer.
//  2. The queue is two tiers ordered by (at, seq). The earliest pending
//     events live in near, a fixed array inside Engine sorted
//     latest-first, so the next event is its last element and firing
//     is n--; everything later waits in a specialized 4-ary min-heap of
//     inline entries (no container/heap boxing, log₄ levels), and every
//     window entry orders before every heap entry. A figure's queue
//     fits the window; the heap keeps thousands of events logarithmic.
//  3. Cancel removes the entry at once instead of leaving a tombstone,
//     so the run loop never drains dead events and Pending reports the
//     live count: a record's heapIdx is its position in the heap (an
//     O(log n) removal), or -1 for "in the window" (a bounded scan).
//  4. Schedule into the window is an insertion from the back comparing
//     at only: a new event has the largest seq, so it goes in front of
//     the first entry with a later instant, and half of what a figure
//     schedules fires next. An event goes to the heap instead when it
//     is not earlier than the heap's minimum, or when the window is
//     full and it is not earlier than the window's latest entry;
//     otherwise a full window spills that latest entry to the heap, and
//     an empty one refills half of itself from the heap. Worst case
//     O(window + log n).
//
// Determinism is unchanged: (at, seq) is a total order (seq is unique),
// so firing order is bit-identical to the old boxed binary heap.

// event is one pooled event record. While scheduled, heapIdx is the
// record's position in the heap, or -1 when its entry is in the window;
// while free, next links the free list.
type event struct {
	fn      func()
	gen     uint32
	heapIdx int32
	next    int32
}

// heapEntry is an inline element of either tier: the ordering key plus
// the slot of its event record. Keeping the key inline means comparisons
// never chase a pointer.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// EventID identifies a scheduled event so it can be canceled. It is a
// generation-stamped handle: canceling an event that already fired (or
// was already canceled) is a no-op, because firing and canceling both
// advance the slot's generation. The zero EventID refers to no event.
type EventID struct {
	slot int32
	gen  uint32
}

// Valid reports whether the ID was issued by Schedule/After (it may
// still refer to an event that has since fired or been canceled).
func (id EventID) Valid() bool { return id.gen != 0 }

// Engine is the discrete-event simulation driver. It is not safe for
// concurrent use; the whole simulation runs on a single goroutine (the
// kernel package calls simulated process bodies from engine events, so
// they never run concurrently with the engine).
type Engine struct {
	now       Time
	seq       uint64
	n         int         // live entries of near; near[n-1] fires next
	heap      []heapEntry // everything later than near[0]
	events    []event
	free      int32 // head of the free-record list, -1 when empty
	rng       *RNG
	stopped   bool
	nfired    uint64
	ncanceled uint64
	near      [window]heapEntry
}

// window is how many of the earliest pending events near holds, chosen
// by measurement (EXPERIMENTS.md PERF-9); the figures never hold more
// (experiments.TestFigureQueuesFitTheWindow).
const window = 64

// NewEngine returns an engine with the clock at zero and an RNG seeded
// with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), free: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired reports how many events have fired so far. Canceled events
// never fire and are not counted.
func (e *Engine) Fired() uint64 { return e.nfired }

// Canceled reports how many scheduled events were canceled before
// firing.
func (e *Engine) Canceled() uint64 { return e.ncanceled }

// Pending reports how many live events are scheduled but not yet fired.
// Canceled events are removed from the queue immediately, so they are
// never included, and neither is the event that is firing.
func (e *Engine) Pending() int { return e.n + len(e.heap) }

// HighWater reports the most events that were ever pending at once: the
// length of the record slab, which grows only when every record is live.
func (e *Engine) HighWater() int { return len(e.events) }

// alloc takes a record slot from the free list, or grows the slab.
func (e *Engine) alloc() int32 {
	if e.free >= 0 {
		slot := e.free
		e.free = e.events[slot].next
		return slot
	}
	e.events = append(e.events, event{gen: 1, heapIdx: -1})
	return int32(len(e.events) - 1)
}

// release returns a fired or canceled record to the free list, bumping
// its generation so stale EventIDs become inert.
func (e *Engine) release(slot int32) {
	rec := &e.events[slot]
	rec.fn = nil
	rec.gen++
	rec.heapIdx = -1
	rec.next = e.free
	e.free = slot
}

// Schedule arranges for fn to run at instant at. Scheduling in the past
// panics: it always indicates a model bug. Events at the current instant
// are legal and fire after all callbacks already queued for that instant.
// In steady state (once the engine's slab has grown to the simulation's
// high-water mark of concurrently pending events) Schedule performs no
// allocation.
func (e *Engine) Schedule(at Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	slot := e.alloc()
	rec := &e.events[slot]
	rec.fn = fn
	seq := e.seq
	e.seq++
	en := heapEntry{at: at, seq: seq, slot: slot}
	i := e.n
	switch {
	case len(e.heap) > 0 && at >= e.heap[0].at, i == window && at >= e.near[0].at:
		e.siftUp(len(e.heap), en)
	case i < window:
		for ; i > 0 && e.near[i-1].at <= at; i-- {
			e.near[i] = e.near[i-1]
		}
		e.near[i] = en
		e.n++
	default:
		// Spill: the window's latest entry becomes the heap's minimum,
		// and the entries between it and en move down over it.
		e.siftUp(len(e.heap), e.near[0])
		for i = 1; i < window && e.near[i].at > at; i++ {
			e.near[i-1] = e.near[i]
		}
		e.near[i-1] = en
	}
	return EventID{slot: slot, gen: rec.gen}
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) EventID {
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel stops a scheduled event, removing it from the queue at once:
// no tombstone remains to drain, Pending drops immediately, and Fired
// will never count it. Canceling an already-fired or already-canceled
// event (or the zero EventID) is a no-op.
func (e *Engine) Cancel(id EventID) {
	if id.gen == 0 || int(id.slot) >= len(e.events) {
		return
	}
	rec := &e.events[id.slot]
	if rec.gen != id.gen {
		return // already fired or canceled; the slot moved on
	}
	if rec.heapIdx >= 0 {
		e.removeAt(rec.heapIdx)
	} else {
		i := e.n - 1
		for e.near[i].slot != id.slot {
			i--
		}
		e.n--
		copy(e.near[i:e.n], e.near[i+1:])
	}
	e.release(id.slot)
	e.ncanceled++
}

// Stop makes Run return after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events in order until the queue empties, the clock would pass
// until, or Stop is called. It returns the virtual time at which it
// stopped. Events scheduled exactly at until do fire.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for !e.stopped {
		if e.n == 0 {
			if len(e.heap) == 0 {
				break
			}
			e.refill()
		}
		top := e.near[e.n-1]
		if top.at > until {
			e.now = until
			return e.now
		}
		// Remove the entry and free the record before invoking the
		// callback: the callback may cancel its own (now stale) ID or
		// schedule a new event into the just-freed slot, and both must be
		// safe — and a callback that panics out of Run leaves the queue
		// exact.
		e.n--
		fn := e.events[top.slot].fn
		e.release(top.slot)
		e.now = top.at
		e.nfired++
		fn()
	}
	// Either the queue drained before the horizon (the simulation is
	// quiescent) or Stop was called; both report the last fired instant.
	return e.now
}

// RunUntilIdle fires all events with no time bound and returns the final
// virtual time.
func (e *Engine) RunUntilIdle() Time { return e.Run(Forever) }

// Every schedules fn to run now+d, now+2d, ... until the returned cancel
// function is called or fn returns false.
func (e *Engine) Every(d Duration, fn func() bool) (cancel func()) {
	if d <= 0 {
		panic("sim: Every with non-positive period")
	}
	canceled := false
	var tick func()
	tick = func() {
		if canceled {
			return
		}
		if !fn() {
			return
		}
		e.After(d, tick)
	}
	e.After(d, tick)
	return func() { canceled = true }
}

// refill moves the heap's earliest entries, up to half a window of them,
// into the empty window.
func (e *Engine) refill() {
	k := min(window/2, len(e.heap))
	for i := k - 1; i >= 0; i-- {
		e.near[i] = e.heap[0]
		e.events[e.heap[0].slot].heapIdx = -1
		e.popMin()
	}
	e.n = k
}

// ---- the far tier: a 4-ary min-heap over (at, seq) ----
//
// Children of i are 4i+1..4i+4; parent of i is (i-1)/4. Less is strict
// (at, seq) ordering; seq is unique, so there are never ties and the
// pop order is a total order independent of the heap's internal layout.

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place writes en at heap index i and updates the record back-pointer.
func (e *Engine) place(i int, en heapEntry) {
	e.heap[i] = en
	e.events[en.slot].heapIdx = int32(i)
}

// siftUp inserts en at index i (which must be len(heap) for an append,
// or the index a removal vacated) and moves it toward the root.
func (e *Engine) siftUp(i int, en heapEntry) {
	if i == len(e.heap) {
		e.heap = append(e.heap, heapEntry{})
	}
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(en, e.heap[parent]) {
			break
		}
		e.place(i, e.heap[parent])
		i = parent
	}
	e.place(i, en)
}

// siftDown places en at index i and moves it toward the leaves.
func (e *Engine) siftDown(i int, en heapEntry) {
	n := len(e.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(e.heap[c], e.heap[min]) {
				min = c
			}
		}
		if !entryLess(e.heap[min], en) {
			break
		}
		e.place(i, e.heap[min])
		i = min
	}
	e.place(i, en)
}

// popMin removes the root entry.
func (e *Engine) popMin() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// removeAt deletes the entry at heap index i, restoring heap order.
func (e *Engine) removeAt(i int32) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if int(i) == n {
		return
	}
	// The displaced last entry may need to move either direction
	// relative to position i.
	if i > 0 && entryLess(last, e.heap[(i-1)/4]) {
		e.siftUp(int(i), last)
	} else {
		e.siftDown(int(i), last)
	}
}
