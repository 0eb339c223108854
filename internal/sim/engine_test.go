package sim

import (
	"slices"
	"testing"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	end := e.RunUntilIdle()
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if end != 30 {
		t.Errorf("final time %v, want 30", end)
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineEventsScheduledDuringEvent(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(10, func() {
		order = append(order, "a")
		e.Schedule(10, func() { order = append(order, "a-nested") })
		e.Schedule(5+10, func() { order = append(order, "c") })
	})
	e.Schedule(12, func() { order = append(order, "b") })
	e.RunUntilIdle()
	want := []string{"a", "a-nested", "b", "c"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.RunUntilIdle()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	id := e.Schedule(10, func() { fired = true })
	e.Cancel(id)
	e.Cancel(id) // double cancel is a no-op
	e.RunUntilIdle()
	if fired {
		t.Error("canceled event fired")
	}
	// Canceling a fired event is a no-op.
	ran := false
	id2 := e.Schedule(20, func() { ran = true })
	e.RunUntilIdle()
	e.Cancel(id2)
	if !ran {
		t.Error("event did not fire")
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	end := e.Run(20)
	if len(fired) != 2 || fired[1] != 20 {
		t.Errorf("events at horizon must fire: got %v", fired)
	}
	if end != 20 {
		t.Errorf("Run returned %v, want 20", end)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	end = e.RunUntilIdle()
	if end != 30 || len(fired) != 3 {
		t.Errorf("resume failed: end=%v fired=%v", end, fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.RunUntilIdle()
	if count != 2 {
		t.Errorf("Stop did not halt the loop: %d events fired", count)
	}
	// Run can continue afterwards.
	e.RunUntilIdle()
	if count != 5 {
		t.Errorf("resume after Stop fired %d total, want 5", count)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {
		e.After(50, func() {
			if e.Now() != 150 {
				t.Errorf("After fired at %v, want 150", e.Now())
			}
		})
	})
	e.RunUntilIdle()
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	e.Every(10, func() bool {
		at = append(at, e.Now())
		return len(at) < 3
	})
	e.RunUntilIdle()
	want := []Time{10, 20, 30}
	if len(at) != 3 {
		t.Fatalf("Every fired %d times, want 3", len(at))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestEngineEveryCancel(t *testing.T) {
	e := NewEngine(1)
	n := 0
	cancel := e.Every(10, func() bool { n++; return true })
	e.Run(35)
	cancel()
	e.Run(100)
	if n != 3 {
		t.Errorf("canceled Every fired %d times, want 3", n)
	}
}

func TestEngineEveryInvalidPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	NewEngine(1).Every(0, func() bool { return true })
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunUntilIdle()
	if e.Fired() != 7 {
		t.Errorf("Fired = %d, want 7", e.Fired())
	}
}

func TestEngineQuiescenceBeforeHorizon(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	end := e.Run(1000)
	if end != 10 {
		t.Errorf("engine should report quiescence time 10, got %v", end)
	}
}

// TestEngineZeroAllocSteadyState pins the tentpole property: once the
// record slab has grown to the workload's high-water mark, Schedule,
// After, Cancel, and the run loop allocate nothing. A regression here
// silently taxes every simulation in the repo.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Prime the slab and the heap backing array.
	var ids []EventID
	for i := 0; i < 64; i++ {
		ids = append(ids, e.Schedule(Time(i), fn))
	}
	for _, id := range ids {
		e.Cancel(id)
	}

	if n := testing.AllocsPerRun(100, func() {
		id := e.Schedule(e.Now().Add(10), fn)
		e.Cancel(id)
	}); n != 0 {
		t.Errorf("Schedule+Cancel allocates %.1f per op in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e.Cancel(e.After(10, fn))
	}); n != 0 {
		t.Errorf("After+Cancel allocates %.1f per op in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.After(Duration(i%7), fn)
		}
		e.RunUntilIdle()
	}); n != 0 {
		t.Errorf("Schedule+Run cycle allocates %.1f per op in steady state, want 0", n)
	}

	// Both tiers: three windows' worth of events latest-first, so all but
	// the first window spill; a cancel in the window and one in the heap;
	// then a run that drains the window and refills it, twice over.
	ids = make([]EventID, 3*window)
	cycle := func() {
		for i := range ids {
			ids[i] = e.After(Duration(len(ids)-i), fn)
		}
		if got := len(e.heap); got != 2*window {
			t.Fatalf("%d events in the heap, want %d", got, 2*window)
		}
		e.Cancel(ids[0])          // the latest: spilled first
		e.Cancel(ids[len(ids)-1]) // the earliest: in the window
		fired := e.Fired()
		e.RunUntilIdle()
		if got := e.Fired() - fired; got != uint64(len(ids)-2) {
			t.Fatalf("fired %d, want %d", got, len(ids)-2)
		}
	}
	cycle() // grows the slab and the heap's backing array
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("spill, cancel in both tiers and refill allocate %.1f per cycle in steady state, want 0", n)
	}
}

// TestRunResumesAfterCallbackPanic: a callback that panics out of Run
// leaves nothing to repair. The firing event left the queue before its
// callback ran, so Pending is exact and the next Run fires the rest in
// order — with the survivors in the window and in the heap.
func TestRunResumesAfterCallbackPanic(t *testing.T) {
	e := NewEngine(1)
	const events = 2 * window
	var got []int
	for i := 0; i < events; i++ {
		e.Schedule(Time(10+i), func() {
			got = append(got, i)
			if i == 3 {
				e.After(1, func() { got = append(got, -1) }) // scheduled, then the panic
				panic("callback failed")
			}
		})
	}
	func() {
		defer func() {
			if r := recover(); r != "callback failed" {
				t.Fatalf("recovered %v, want the callback's panic", r)
			}
		}()
		e.RunUntilIdle()
	}()
	if e.Pending() != events-3 || e.Fired() != 4 || e.Now() != 13 {
		t.Fatalf("after the panic: Pending %d, Fired %d, Now %v; want %d, 4, 13", e.Pending(), e.Fired(), e.Now(), events-3)
	}
	if len(e.heap) == 0 {
		t.Fatal("no survivor in the heap: the test no longer covers both tiers")
	}
	e.RunUntilIdle()
	want := []int{0, 1, 2, 3, 4, -1} // -1 was scheduled for 14 after event 4 was
	for i := 5; i < events; i++ {
		want = append(want, i)
	}
	if !slices.Equal(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
	if e.Pending() != 0 || e.Fired() != events+1 {
		t.Errorf("at idle: Pending %d, Fired %d; want 0, %d", e.Pending(), e.Fired(), events+1)
	}
}

// TestWindowIsTheMeasuredSize: experiments.TestFigureQueuesFitTheWindow
// holds the figures' queues under this size and cannot see the constant,
// so the two move together.
func TestWindowIsTheMeasuredSize(t *testing.T) {
	if window != 64 {
		t.Errorf("window = %d: update engineWindow in internal/experiments/alloc_test.go with it", window)
	}
}

// TestEngineFiredExcludesCanceled pins the Fired/Canceled accounting
// semantics: events canceled before their instant never fire and never
// count, including the tricky case of an event canceled by an earlier
// event at the very same instant (the old tombstone engine drained
// those inside the run loop; they must not bump Fired).
func TestEngineFiredExcludesCanceled(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	var victim, victim2 EventID
	e.Schedule(10, func() {
		ran++
		e.Cancel(victim)  // same instant, later seq: must be drained silently
		e.Cancel(victim2) // later instant
	})
	victim = e.Schedule(10, func() { ran++ })
	victim2 = e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntilIdle()

	if ran != 2 {
		t.Errorf("ran %d callbacks, want 2", ran)
	}
	if e.Fired() != 2 {
		t.Errorf("Fired = %d, want 2 (canceled events must not count)", e.Fired())
	}
	if e.Canceled() != 2 {
		t.Errorf("Canceled = %d, want 2", e.Canceled())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after idle, want 0", e.Pending())
	}
}

// TestEnginePendingLiveOnly pins that Pending counts live events only:
// Cancel removes from the queue immediately rather than leaving a
// tombstone to be discovered later.
func TestEnginePendingLiveOnly(t *testing.T) {
	e := NewEngine(1)
	var ids []EventID
	for i := 0; i < 8; i++ {
		ids = append(ids, e.Schedule(Time(10+i), func() {}))
	}
	if e.Pending() != 8 {
		t.Fatalf("Pending = %d, want 8", e.Pending())
	}
	for i, id := range ids {
		e.Cancel(id)
		if want := 8 - i - 1; e.Pending() != want {
			t.Fatalf("Pending = %d after %d cancels, want %d", e.Pending(), i+1, want)
		}
	}
	if e.Canceled() != 8 {
		t.Errorf("Canceled = %d, want 8", e.Canceled())
	}
	// Double cancel and cancel-after-fire must not inflate the counter.
	e.Cancel(ids[0])
	id := e.Schedule(100, func() {})
	e.RunUntilIdle()
	e.Cancel(id)
	e.Cancel(EventID{}) // zero ID is inert
	if e.Canceled() != 8 {
		t.Errorf("Canceled = %d after no-op cancels, want 8", e.Canceled())
	}
}

// TestEngineSlotReuseGeneration pins the generation stamping: an ID
// whose slot has been recycled for a newer event must be inert — the
// stale cancel must not kill the new occupant.
func TestEngineSlotReuseGeneration(t *testing.T) {
	e := NewEngine(1)
	stale := e.Schedule(10, func() { t.Error("canceled event fired") })
	e.Cancel(stale)
	fired := false
	fresh := e.Schedule(20, func() { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("free list did not recycle the slot (stale %d, fresh %d)", stale.slot, fresh.slot)
	}
	e.Cancel(stale) // stale generation: must be a no-op
	e.RunUntilIdle()
	if !fired {
		t.Error("stale Cancel killed the slot's new event")
	}
	// Self-cancel from inside the firing callback: the record is freed
	// before the callback runs, so this is a generation-mismatch no-op.
	var self EventID
	n := 0
	self = e.Schedule(30, func() {
		n++
		e.Cancel(self)
	})
	e.Schedule(40, func() { n++ })
	e.RunUntilIdle()
	if n != 2 {
		t.Errorf("self-cancel disturbed the queue: %d fired, want 2", n)
	}
}

// TestEngineCancelRescheduleStress drives the engine through a long
// randomized mix of schedule, cancel, and cancel-then-reschedule
// operations — including cancels issued from inside callbacks — and
// checks the firing order and the Fired/Canceled/Pending accounting
// against a flat reference model. This is the adversarial workout for
// the free list + generation machinery under heavy slot churn.
func TestEngineCancelRescheduleStress(t *testing.T) {
	rng := NewRNG(2026)
	for trial := 0; trial < 20; trial++ {
		e := NewEngine(1)
		type ref struct {
			at       Time
			id       EventID
			key      int
			canceled bool
		}
		var model []*ref
		var got, want []int
		nsched := 0
		schedule := func(at Time, key int) *ref {
			r := &ref{at: at, key: key}
			r.id = e.Schedule(at, func() { got = append(got, key) })
			model = append(model, r)
			nsched++
			return r
		}
		cancelRef := func(r *ref) {
			if !r.canceled {
				e.Cancel(r.id)
				r.canceled = true
			}
		}
		live := func() []*ref {
			var out []*ref
			for _, r := range model {
				if !r.canceled {
					out = append(out, r)
				}
			}
			return out
		}

		// Build an initial population, then churn: cancel some, reschedule
		// replacements (recycling slots), cancel stale IDs again.
		for i := 0; i < 100; i++ {
			schedule(Time(rng.Intn(500)), i)
		}
		key := 100
		for round := 0; round < 200; round++ {
			switch rng.Intn(3) {
			case 0:
				if l := live(); len(l) > 0 {
					cancelRef(l[rng.Intn(len(l))])
				}
			case 1:
				schedule(Time(rng.Intn(500)), key)
				key++
			case 2: // cancel + immediate replacement at the same instant
				if l := live(); len(l) > 0 {
					victim := l[rng.Intn(len(l))]
					cancelRef(victim)
					schedule(victim.at, key)
					key++
				}
			}
		}
		// A few events cancel other live events when they fire.
		for i := 0; i < 10; i++ {
			l := live()
			if len(l) < 2 {
				break
			}
			target := l[rng.Intn(len(l))]
			at := Time(rng.Intn(500))
			r := &ref{at: at, key: key}
			tkey := key
			r.id = e.Schedule(at, func() {
				got = append(got, tkey)
				// Only cancel targets strictly in the future: the target
				// was scheduled before this canceler, so at an equal
				// instant it has already fired and Cancel is a no-op.
				if !target.canceled && target.at > at {
					cancelRef(target)
				}
			})
			model = append(model, r)
			nsched++
			key++
		}

		beforeCancels := e.Canceled()
		e.RunUntilIdle()

		// Replay the model: fire in (at, insertion) order, honoring
		// cancels exactly as the callbacks above applied them. The
		// callback-driven cancels already flipped r.canceled eagerly, but
		// only for targets strictly after the canceler in (at, seq) order,
		// so the final canceled flags equal the engine's view.
		var flat []*ref
		flat = append(flat, model...)
		for at := Time(0); at < 500; at++ {
			for _, r := range flat {
				if r.at == at && !r.canceled {
					want = append(want, r.key)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverged at %d: got %d want %d", trial, i, got[i], want[i])
			}
		}
		ncanceled := 0
		for _, r := range model {
			if r.canceled {
				ncanceled++
			}
		}
		if e.Fired() != uint64(len(want)) {
			t.Errorf("trial %d: Fired = %d, want %d", trial, e.Fired(), len(want))
		}
		if e.Canceled() != uint64(ncanceled) {
			t.Errorf("trial %d: Canceled = %d, want %d (pre-run %d)", trial, e.Canceled(), ncanceled, beforeCancels)
		}
		if e.Pending() != 0 {
			t.Errorf("trial %d: Pending = %d after idle, want 0", trial, e.Pending())
		}
		if uint64(nsched) != e.Fired()+e.Canceled() {
			t.Errorf("trial %d: scheduled %d != fired %d + canceled %d", trial, nsched, e.Fired(), e.Canceled())
		}
	}
}
