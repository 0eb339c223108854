package sim

import (
	"strconv"
	"testing"
)

// The engine's reference model: the live events in a flat list, the next
// one to fire found by scanning for the (at, seq) minimum. An op program
// (bytes; reads past the end yield 0) drives the engine and the model
// side by side — before Run, between the horizon chunks a caller such as
// experiments.Sim.RunUntil cuts a run into, and from inside the
// callbacks — with bursts that push the population past the window, so
// that events spill to the heap, are routed there, come back by refill
// and are canceled in either tier. The model also reads the engine's
// two tiers after every step and holds them to their invariants.
// TestEngineMatchesReferenceModel feeds it seeded random programs,
// FuzzEngineModel whatever the fuzzer finds.

type modelEvent struct {
	at  Time
	seq int // scheduling order: the tie-break at equal instants
	id  EventID

	inHeap            bool // the tier it was last seen in
	evicted, refilled bool // has moved window → heap, heap → window
}

// modelCoverage counts what the programs reached, so the seeded test can
// insist that every path between the two tiers was taken.
type modelCoverage struct {
	scheduledNone, scheduledOne, scheduledMany int // per callback
	cancelOwn                                  int // canceled an event scheduled by the same callback
	cancelStale                                int
	earlier, equal, later                      int // a callback's Schedule against everything pending
	stops, chunks                              int

	spills                         int // window full, new event earlier than its latest: that one moved to the heap
	heapLater, heapEqual, heapFull int // a Schedule routed to the heap: after its minimum, at its instant, behind a full window
	refills                        int // entries that moved from the heap into the window
	cancelWindow, cancelHeap       int
	cancelEvicted, cancelRefilled  int // canceled in the heap after a spill, in the window after a refill
}

type engineModel struct {
	t    testing.TB
	e    *Engine
	prog []byte
	pc   int
	cov  *modelCoverage

	live []*modelEvent
	dead []EventID // fired and canceled: every one must stay inert

	nsched, nfired, ncanceled int
	lastFired                 Time
	stopped                   bool // a callback of the current Run called Stop
}

func (m *engineModel) next() int {
	if m.pc >= len(m.prog) {
		return 0
	}
	b := m.prog[m.pc]
	m.pc++
	return int(b)
}

func (m *engineModel) exhausted() bool { return m.pc >= len(m.prog) }

func (m *engineModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("at program byte %d of %d: "+format, append([]any{m.pc, len(m.prog)}, args...)...)
}

func modelLess(a, b *modelEvent) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// min returns the live event that must fire next, or nil.
func (m *engineModel) min() *modelEvent {
	var best *modelEvent
	for _, ev := range m.live {
		if best == nil || modelLess(ev, best) {
			best = ev
		}
	}
	return best
}

func (m *engineModel) unlive(ev *modelEvent) {
	for i, l := range m.live {
		if l == ev {
			m.live = append(m.live[:i], m.live[i+1:]...)
			m.dead = append(m.dead, ev.id)
			return
		}
	}
	m.fatalf("event (at %v, seq %d) is not live", ev.at, ev.seq)
}

// tiers reads which tier every live event is in, counts the moves since
// the last look, and holds the queue to its shape: the window sorted
// latest-first, all of it ahead of the heap's minimum, back-pointers
// exact.
func (m *engineModel) tiers() {
	m.t.Helper()
	e := m.e
	for _, ev := range m.live {
		inHeap := e.events[ev.id.slot].heapIdx >= 0
		if inHeap && !ev.inHeap {
			ev.evicted = true
			m.cov.spills++
		} else if !inHeap && ev.inHeap {
			ev.refilled = true
			m.cov.refills++
		}
		ev.inHeap = inHeap
	}
	for i := 0; i < e.n; i++ {
		if e.events[e.near[i].slot].heapIdx != -1 {
			m.fatalf("window entry %d has heapIdx %d", i, e.events[e.near[i].slot].heapIdx)
		}
		if i > 0 && !entryLess(e.near[i], e.near[i-1]) {
			m.fatalf("window entries %d and %d are out of order", i-1, i)
		}
	}
	if e.n > 0 && len(e.heap) > 0 && !entryLess(e.near[0], e.heap[0]) {
		m.fatalf("the heap's minimum is not after the window's latest entry")
	}
	for i, en := range e.heap {
		if e.events[en.slot].heapIdx != int32(i) {
			m.fatalf("heap entry %d has heapIdx %d", i, e.events[en.slot].heapIdx)
		}
	}
}

// check compares the engine's accounting with the model's; it runs after
// every operation and at the top of every callback.
func (m *engineModel) check(after string) {
	m.t.Helper()
	m.tiers()
	if got := m.e.Pending(); got != len(m.live) {
		m.fatalf("after %s: Pending = %d, want %d", after, got, len(m.live))
	}
	if got := m.e.Fired(); got != uint64(m.nfired) {
		m.fatalf("after %s: Fired = %d, want %d", after, got, m.nfired)
	}
	if got := m.e.Canceled(); got != uint64(m.ncanceled) {
		m.fatalf("after %s: Canceled = %d, want %d", after, got, m.ncanceled)
	}
}

// pickTime chooses an instant at or after now: the earliest possible,
// the instant of some pending event, past everything pending, or a
// small offset.
func (m *engineModel) pickTime() Time {
	now := m.e.Now()
	switch m.next() % 4 {
	case 0:
		return now
	case 1:
		if len(m.live) > 0 {
			return m.live[m.next()%len(m.live)].at
		}
		return now
	case 2:
		last := now
		for _, ev := range m.live {
			last = max(last, ev.at)
		}
		return last.Add(Duration(1 + m.next()%3))
	default:
		return now.Add(Duration(m.next() % 8))
	}
}

// pickLive chooses a live event: any one, or (selectors from 128 up)
// one of the eight soonest to fire — a timer cleared just before it is
// due, and after a refill an entry that came back from the heap.
func (m *engineModel) pickLive() *modelEvent {
	b := m.next()
	if b < 128 {
		return m.live[b%len(m.live)]
	}
	var pick *modelEvent
	for k := b % 8; ; k-- {
		var next *modelEvent
		for _, ev := range m.live {
			if (pick == nil || modelLess(pick, ev)) && (next == nil || modelLess(ev, next)) {
				next = ev
			}
		}
		if next == nil {
			return pick // fewer than eight live: the last to fire
		}
		if pick = next; k == 0 {
			return pick
		}
	}
}

func (m *engineModel) schedule(at Time) *modelEvent {
	ev := &modelEvent{at: at, seq: m.nsched}
	m.nsched++
	hadHeap := len(m.e.heap) > 0
	var heapMin Time
	if hadHeap {
		heapMin = m.e.heap[0].at
	}
	ev.id = m.e.Schedule(at, func() { m.fire(ev) })
	if !ev.id.Valid() {
		m.fatalf("Schedule returned an invalid ID")
	}
	if ev.inHeap = m.e.events[ev.id.slot].heapIdx >= 0; ev.inHeap {
		switch {
		case hadHeap && at > heapMin:
			m.cov.heapLater++
		case hadHeap && at == heapMin:
			m.cov.heapEqual++
		default:
			m.cov.heapFull++
		}
	}
	m.live = append(m.live, ev)
	return ev
}

func (m *engineModel) cancel(ev *modelEvent) {
	if ev.inHeap {
		m.cov.cancelHeap++
		if ev.evicted {
			m.cov.cancelEvicted++
		}
	} else {
		m.cov.cancelWindow++
		if ev.refilled {
			m.cov.cancelRefilled++
		}
	}
	m.e.Cancel(ev.id)
	m.unlive(ev)
	m.ncanceled++
}

// callbackState is what one firing callback has done so far.
type callbackState struct {
	mine      []*modelEvent // scheduled by this callback
	scheduled int
}

// op runs one operation of the program. cb is nil outside callbacks.
func (m *engineModel) op(cb *callbackState) {
	switch kind := m.next() % 8; kind {
	case 0, 1, 2:
		at := m.pickTime()
		if cb != nil {
			if first := m.min(); first == nil || at < first.at {
				m.cov.earlier++
			} else if at == first.at {
				m.cov.equal++
			} else {
				m.cov.later++
			}
		}
		ev := m.schedule(at)
		if cb != nil {
			cb.mine = append(cb.mine, ev)
			cb.scheduled++
		}
	case 3:
		if len(m.live) > 0 {
			m.cancel(m.pickLive())
		}
	case 4:
		// An event this callback scheduled itself.
		if cb != nil && len(cb.mine) > 0 {
			ev := cb.mine[m.next()%len(cb.mine)]
			for _, l := range m.live {
				if l == ev {
					m.cancel(ev)
					m.cov.cancelOwn++
					break
				}
			}
		}
	case 5:
		// A stale ID (the firing event's own included): its slot may be
		// free, or reused by a newer event that must survive this.
		if len(m.dead) > 0 {
			m.e.Cancel(m.dead[m.next()%len(m.dead)])
			m.cov.cancelStale++
		}
	case 6:
		if cb != nil {
			m.e.Stop()
			m.stopped = true
			m.cov.stops++
		}
	case 7:
		// A burst, so that the population outgrows the window: up to 79
		// events over a few instants from now on, ties included. (The caps
		// on live and on total events keep the quadratic model affordable.)
		n, span, stride := 16+m.next()%64, 1+m.next()%32, 1+m.next()%7
		if len(m.live) > 4*window || m.nsched > 16*window {
			break
		}
		for i := 0; i < n; i++ {
			ev := m.schedule(m.e.Now().Add(Duration(i * stride % span)))
			if cb != nil {
				cb.mine = append(cb.mine, ev)
				cb.scheduled++
			}
		}
	}
	m.check("op")
}

// fire is every event's callback.
func (m *engineModel) fire(ev *modelEvent) {
	want := m.min()
	if want != ev {
		if want == nil {
			m.fatalf("fired (at %v, seq %d) with nothing live", ev.at, ev.seq)
		}
		m.fatalf("fired (at %v, seq %d), want (at %v, seq %d)", ev.at, ev.seq, want.at, want.seq)
	}
	if m.e.Now() != ev.at {
		m.fatalf("event due at %v fired at %v", ev.at, m.e.Now())
	}
	m.unlive(ev)
	m.nfired++
	m.lastFired = ev.at
	m.check("firing")
	var cb callbackState
	for n := m.next() % 4; n > 0; n-- {
		m.op(&cb)
	}
	switch cb.scheduled {
	case 0:
		m.cov.scheduledNone++
	case 1:
		m.cov.scheduledOne++
	default:
		m.cov.scheduledMany++
	}
}

func runEngineModel(t testing.TB, prog []byte, cov *modelCoverage) {
	m := &engineModel{t: t, e: NewEngine(1), prog: prog, cov: cov}
	for n := m.next() % 48; n > 0; n-- {
		m.schedule(m.pickTime())
	}
	m.check("the initial population")
	for {
		for n := m.next() % 3; n > 0; n-- {
			m.op(nil)
		}
		if len(m.live) == 0 {
			if m.exhausted() {
				break
			}
			continue
		}
		// A spent program makes every callback a no-op, so the last
		// chunk can run to idle.
		until := Forever
		if !m.exhausted() {
			until = m.e.Now().Add(Duration(m.next() % 6))
		}
		m.stopped = false
		end := m.e.Run(until)
		m.cov.chunks++
		want := m.lastFired // stopped, or drained before the horizon
		if first := m.min(); !m.stopped && first != nil {
			if first.at <= until {
				m.fatalf("Run(%v) returned with (at %v, seq %d) due", until, first.at, first.seq)
			}
			want = until
		}
		if end != want || m.e.Now() != want {
			m.fatalf("Run(%v) = %v with Now %v, want %v (stopped %v)", until, end, m.e.Now(), want, m.stopped)
		}
		m.check("Run")
	}
	if m.nsched != m.nfired+m.ncanceled {
		m.fatalf("scheduled %d != fired %d + canceled %d", m.nsched, m.nfired, m.ncanceled)
	}
	for _, id := range m.dead {
		m.e.Cancel(id)
	}
	m.check("canceling every stale ID")
}

// TestEngineMatchesReferenceModel runs seeded random programs through
// the model and insists they reached every way an event moves between
// the tiers — spilled, routed to the heap, refilled — every place a
// Cancel can find it, and callbacks that schedule nothing, one event
// (earlier than, equal to and later than everything pending) and
// several, with Stop and stale Cancels in between.
func TestEngineMatchesReferenceModel(t *testing.T) {
	rng := NewRNG(99)
	var cov modelCoverage
	for trial := 0; trial < 300; trial++ {
		prog := make([]byte, 32+rng.Intn(2016))
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		t.Run(strconv.Itoa(trial), func(t *testing.T) { runEngineModel(t, prog, &cov) })
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"callbacks scheduling nothing", cov.scheduledNone},
		{"callbacks scheduling one event", cov.scheduledOne},
		{"callbacks scheduling several", cov.scheduledMany},
		{"cancels of a just-scheduled event", cov.cancelOwn},
		{"stale cancels", cov.cancelStale},
		{"schedules before everything pending", cov.earlier},
		{"schedules at the earliest pending instant", cov.equal},
		{"schedules after the earliest pending instant", cov.later},
		{"stops", cov.stops},
		{"horizon chunks", cov.chunks},
		{"spills of the window's latest entry", cov.spills},
		{"schedules into the heap after its minimum", cov.heapLater},
		{"schedules into the heap at its minimum's instant", cov.heapEqual},
		{"schedules into the heap behind a full window", cov.heapFull},
		{"entries refilled from the heap", cov.refills},
		{"cancels in the window", cov.cancelWindow},
		{"cancels in the heap", cov.cancelHeap},
		{"cancels of a spilled entry", cov.cancelEvicted},
		{"cancels of a refilled entry", cov.cancelRefilled},
	} {
		if c.n < 100 {
			t.Errorf("the programs reached only %d %s, want at least 100", c.n, c.what)
		}
	}
}

// FuzzEngineModel is the same oracle over fuzzer-chosen programs. The
// committed corpus under testdata/fuzz/FuzzEngineModel starts it on the
// shapes that matter: every callback rescheduling once over a standing
// population, cancel-then-schedule, callbacks that schedule nothing, and
// bursts past the window that spill, refill and are canceled in both
// tiers.
func FuzzEngineModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{47, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip() // the model is quadratic in live events
		}
		runEngineModel(t, prog, new(modelCoverage))
	})
}
