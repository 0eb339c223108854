package coordinator

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"procctl/internal/flight"
	"procctl/internal/metrics"
)

// The convergence tracker as it was before it grew a per-member index,
// kept as the oracle: Open, Ack and Drop found a member by scanning the
// pending list of every open epoch, and a fan-out above
// referenceScanLimit took a second path, a one-pass set sweep. The code
// below the line is the old converge.go verbatim but for the type names
// and the scanLimit field that lets a test move the fork.
//
// The oracle also took epochs opened out of order, which the coordinator
// stopped doing when a decision became one c.mu section. The tracker no
// longer does: opened in epoch order a member is pending in at most one
// open epoch (TestMemberPendingInOneOpenEpoch holds the oracle to that),
// and its index entry is that one epoch. The streams below open in epoch
// order only.
//
// The two old paths did not agree with each other: when one Open closed
// several epochs the scan closed them in the order its changed list
// emptied them and named the changed member that did, the sweep closed
// them in epoch order and named whoever came last in the epoch's own
// (swap-removed) pending order. The tracker has one path now and it
// keeps the scan's answer — the one every small fan-out, every Ack and
// every Drop always got — so TestTrackerMatchesReference compares
// strictly against the scan at any fan-out, and against the historical
// fork with the two things the sweep chose differently set aside.

// trackerUnderTest is what the differential test drives on both sides.
type trackerUnderTest interface {
	Open(epoch uint64, at int64, changed []pendingMember)
	Ack(name string, through uint64, at int64)
	Drop(name string, at int64)
	OpenEpochs() int
	Reports(limit int) []ConvergeInfo
}

// trackerRig is one tracker with the registry and flight ring it
// reports into.
type trackerRig struct {
	tr  trackerUnderTest
	reg *metrics.Registry
	rec *flight.Recorder
}

func (r trackerRig) metricText(t *testing.T, at int64) string {
	t.Helper()
	var b strings.Builder
	if err := r.reg.Snapshot(at).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTrackerMatchesReference drives the tracker and its predecessor
// with the same seeded Open/Ack/Drop stream — epochs opened in order,
// some numbers skipped, fan-outs on both sides of the old 32-member fork,
// acks for names nobody registered and for `through` values that fall
// between epochs — and requires the same closed-report stream, flight
// events and metric text after every step.
func TestTrackerMatchesReference(t *testing.T) {
	steps := 120_000
	if testing.Short() {
		steps = 20_000
	}
	t.Run("scan", func(t *testing.T) {
		// The oracle scans at every fan-out: everything must match.
		driveTrackers(t, 1, steps, math.MaxInt, nil)
	})
	t.Run("fork", func(t *testing.T) {
		// The oracle forks at 32 as it used to. A step that took the
		// sweep and closed epochs is compared as a set (order within the
		// step and the straggler's name set aside — see the header),
		// every other step strictly.
		driveTrackers(t, 2, steps, referenceScanLimit, nil)
	})
}

// driveTrackers runs one seeded stream on both trackers; afterOpen, if
// given, gets a look at the oracle after every Open.
func driveTrackers(t *testing.T, seed int64, steps, scanLimit int, afterOpen func(step int, ref *referenceTracker)) {
	newRig := func(mk func(*metrics.Registry, *flight.Recorder) trackerUnderTest) trackerRig {
		reg, rec := metrics.NewRegistry(), flight.New(flight.DefaultSize)
		return trackerRig{tr: mk(reg, rec), reg: reg, rec: rec}
	}
	got := newRig(func(reg *metrics.Registry, rec *flight.Recorder) trackerUnderTest {
		return newConvergeTracker(reg, rec)
	})
	var ref *referenceTracker
	want := newRig(func(reg *metrics.Registry, rec *flight.Recorder) trackerUnderTest {
		ref = newReferenceTracker(reg, rec)
		ref.scanLimit = scanLimit
		return ref
	})

	rng := rand.New(rand.NewSource(seed))
	const fleet = 72
	names := make([]string, fleet)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	// Against the fork every member is a socket member, as a fleet's are:
	// the sweep names a different straggler, and only a uniform kind keeps
	// coordinator_convergence_stragglers_total out of that difference.
	remote := func(i int) bool { return scanLimit != math.MaxInt || i%3 != 0 }
	var (
		next   uint64 = 1 // next unused epoch
		at     int64
		events uint64 // flight events compared so far
		closed int    // epochs closed so far, by the reference's count
	)
	for step := 0; step < steps; step++ {
		at += rng.Int63n(40)
		swept := false
		switch r := rng.Intn(100); {
		case r < 40:
			if rng.Intn(10) == 0 {
				next++ // a decision that moved nothing opened no epoch
			}
			epoch := next
			next++
			var n int
			switch k := rng.Intn(10); {
			case k < 6:
				n = 1 + rng.Intn(4)
			case k < 8:
				n = 5 + rng.Intn(28) // up to 32: the scan side of the fork
			default:
				n = 33 + rng.Intn(fleet-32)
			}
			if rng.Intn(50) == 0 {
				n = 0 // a rebalance that changed nothing
			}
			changed := make([]pendingMember, 0, n)
			for _, i := range rng.Perm(fleet)[:n] {
				changed = append(changed, pendingMember{name: names[i], remote: remote(i)})
			}
			swept = n > scanLimit
			got.tr.Open(epoch, at, changed)
			want.tr.Open(epoch, at, changed)
			if afterOpen != nil {
				afterOpen(step, ref)
			}
		case r < 88:
			name := "stranger"
			if i := rng.Intn(fleet + 2); i < fleet {
				name = names[i]
			}
			// Mostly near the live epochs, sometimes 0 or far beyond.
			through := uint64(rng.Int63n(int64(next) + 3))
			if rng.Intn(3) > 0 && next > 6 {
				through = next - 6 + uint64(rng.Intn(8))
			}
			got.tr.Ack(name, through, at)
			want.tr.Ack(name, through, at)
		default:
			name := names[rng.Intn(fleet)]
			got.tr.Drop(name, at)
			want.tr.Drop(name, at)
		}

		if g, w := got.tr.OpenEpochs(), want.tr.OpenEpochs(); g != w {
			t.Fatalf("step %d: %d epochs open, reference has %d", step, g, w)
		}
		// Each side's new flight events are this step's closures, in
		// closing order: the report stream, before the ring forgets it.
		ge, we := newEvents(got.rec, events), newEvents(want.rec, events)
		events += uint64(len(we))
		closed += len(we)
		if swept && len(we) > 0 {
			normalizeSweep(ge)
			normalizeSweep(we)
		}
		if !reflect.DeepEqual(ge, we) {
			t.Fatalf("step %d: flight events\n got %+v\nwant %+v", step, ge, we)
		}
		// The reports this step appended to the closed ring, newest first
		// — and, while nothing has been normalized, the whole ring.
		gr, wr := got.tr.Reports(0), want.tr.Reports(0)
		if scanLimit != math.MaxInt {
			n := min(len(we), len(wr), len(gr))
			gr, wr = gr[:n], wr[:n]
			if swept {
				normalizeSweepReports(gr)
				normalizeSweepReports(wr)
			}
		}
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("step %d: closed reports\n got %+v\nwant %+v", step, gr, wr)
		}
		if step%997 == 0 || step == steps-1 {
			if g, w := got.metricText(t, at), want.metricText(t, at); g != w {
				t.Fatalf("step %d: metric text\n got:\n%s\nwant:\n%s", step, g, w)
			}
		}
	}
	if closed < steps/20 {
		t.Fatalf("only %d epochs closed in %d steps: the stream is not exercising the tracker", closed, steps)
	}
}

// TestMemberPendingInOneOpenEpoch is why the tracker's index holds one
// epoch per member: in the oracle, which keeps every open epoch's whole
// pending list, no member is on two of them after any Open of a stream
// that opens in epoch order.
func TestMemberPendingInOneOpenEpoch(t *testing.T) {
	opens := 0
	driveTrackers(t, 3, 5_000, math.MaxInt, func(step int, ref *referenceTracker) {
		opens++
		in := make(map[string]uint64)
		for _, o := range ref.open {
			for _, p := range o.pending {
				if other, ok := in[p.name]; ok {
					t.Fatalf("step %d: %s is pending in epochs %d and %d", step, p.name, other, o.epoch)
				}
				in[p.name] = o.epoch
			}
		}
	})
	if opens < 1000 {
		t.Fatalf("only %d opens: the stream is not exercising the tracker", opens)
	}
}

// newEvents returns what was appended to rec after its first seen events.
func newEvents(rec *flight.Recorder, seen uint64) []flight.Event {
	n := rec.Total() - seen
	if n == 0 {
		return nil
	}
	return rec.Snapshot(int(n))
}

// normalizeSweep puts one sweep step's converge events in epoch order
// and blanks the straggler's name, the two things the old set sweep
// decided differently from the scan. Sequence numbers are reassigned in
// the new order so the rest of each event still has to match.
func normalizeSweep(evs []flight.Event) {
	if len(evs) == 0 {
		return
	}
	first := evs[0].Seq
	for i := range evs {
		for j := i; j > 0 && evs[j-1].Epoch > evs[j].Epoch; j-- {
			evs[j-1], evs[j] = evs[j], evs[j-1]
		}
	}
	for i := range evs {
		evs[i].Seq = first + uint64(i)
		evs[i].App = ""
	}
}

// normalizeSweepReports is normalizeSweep for the newest-first reports
// the same step appended to the closed ring.
func normalizeSweepReports(rs []ConvergeInfo) {
	for i := range rs {
		for j := i; j > 0 && rs[j-1].Epoch < rs[j].Epoch; j-- {
			rs[j-1], rs[j] = rs[j], rs[j-1]
		}
	}
	for i := range rs {
		rs[i].Straggler = ""
	}
}

// convergeBench drives open→ack→close cycles on a standalone tracker:
// index entry, free list, closed ring.
type convergeBench struct {
	cv      *convergeTracker
	pending [1]pendingMember
}

func newConvergeBench() *convergeBench {
	return &convergeBench{
		cv:      newConvergeTracker(metrics.NewRegistry(), flight.New(flight.DefaultSize)),
		pending: [1]pendingMember{{name: "bench", remote: true}},
	}
}

// Cycle opens one single-member epoch at the given instant and settles
// it one microsecond later.
func (b *convergeBench) Cycle(epoch uint64, at int64) {
	b.cv.Open(epoch, at, b.pending[:])
	b.cv.Ack("bench", epoch, at+1)
}

// BenchmarkConvergeTrack is one steady open→ack→close cycle.
func BenchmarkConvergeTrack(b *testing.B) {
	b.ReportAllocs()
	cb := newConvergeBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.Cycle(uint64(i+1), int64(i))
	}
}

// TestTrackerCycleAllocatesNothing pins the steady open→ack→close cycle
// (BenchmarkConvergeTrack's subject), the same cycle after the member left
// and came back, and the nothing-open poll at zero allocations.
func TestTrackerCycleAllocatesNothing(t *testing.T) {
	b := newConvergeBench()
	epoch := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		epoch++
		b.Cycle(epoch, int64(epoch))
	}); allocs != 0 {
		t.Errorf("one Open+Ack cycle allocates %.1f, want 0", allocs)
	}
	// A name that departs and returns reuses its index slot.
	if allocs := testing.AllocsPerRun(1000, func() {
		epoch++
		b.cv.Drop("bench", int64(epoch))
		b.Cycle(epoch, int64(epoch))
	}); allocs != 0 {
		t.Errorf("one Drop+Open+Ack cycle allocates %.1f, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		b.cv.Ack("bench", epoch, 1)
	}); allocs != 0 {
		t.Errorf("an ack with nothing open allocates %.1f, want 0", allocs)
	}
}

// ---- the old tracker, verbatim ----

// referenceEpoch is one epoch awaiting acks. The pending slice is recycled
// through the tracker's free list, so the open→ack→close cycle
// allocates nothing in steady state.
type referenceEpoch struct {
	epoch    uint64
	openedAt int64 // µs, the decision instant (allocation computed)
	members  int   // pending members at open
	pending  []pendingMember
}

// referenceTracker owns the open-epoch table. Its mutex is a leaf lock
// like pushMu: held only across in-memory bookkeeping and flight-ring
// appends, never across member code, c.mu, or journal I/O (converge
// events are observability-only and are not journaled).
type referenceTracker struct {
	mu   sync.Mutex
	open []*referenceEpoch // ascending by epoch
	free []*referenceEpoch

	closed     [closedRing]ConvergeInfo
	closedNext int
	closedN    int

	rec *flight.Recorder
	met convergeMetrics

	scanLimit int // referenceScanLimit, unless a test moves the fork
}

func newReferenceTracker(reg *metrics.Registry, rec *flight.Recorder) *referenceTracker {
	cv := &referenceTracker{rec: rec, met: newConvergeMetrics(reg), scanLimit: referenceScanLimit}
	openGauge := reg.Gauge("coordinator_convergence_open_epochs", "rebalance epochs still awaiting member acks")
	reg.OnCollect(func(*metrics.Registry) { openGauge.Set(int64(cv.OpenEpochs())) })
	return cv
}

// Open starts tracking an epoch waiting on the given changed members.
// Members of *older* open epochs that appear in changed are superseded
// out of them first: their old targets will never be acknowledged. An
// epoch with no changed members is not tracked — nothing propagates, so
// there is nothing to converge.
func (cv *referenceTracker) Open(epoch uint64, at int64, changed []pendingMember) {
	if cv == nil {
		return
	}
	cv.mu.Lock()
	if len(changed) > cv.scanLimit {
		cv.supersedeSetLocked(changed, at, epoch)
	} else {
		for _, ch := range changed {
			cv.removeLocked(ch.name, at, epoch, ConvergeSuperseded)
		}
	}
	if len(changed) > 0 {
		o := cv.acquireLocked()
		o.epoch = epoch
		o.openedAt = at
		o.members = len(changed)
		o.pending = append(o.pending[:0], changed...)
		cv.insertLocked(o)
	}
	cv.mu.Unlock()
}

// Ack acknowledges that name has applied the target it was pushed in
// epoch `through`; because targets are delivered newest-wins, this also
// acknowledges every older epoch still waiting on the member.
func (cv *referenceTracker) Ack(name string, through uint64, at int64) {
	if cv == nil || through == 0 {
		return
	}
	cv.mu.Lock()
	cv.removeLocked(name, at, through+1, ConvergeSettled)
	cv.mu.Unlock()
}

// Drop removes a departed member (unregister, lease expiry, shutdown)
// from every open epoch; epochs that were waiting only on it close as
// expired.
func (cv *referenceTracker) Drop(name string, at int64) {
	if cv == nil {
		return
	}
	cv.mu.Lock()
	cv.removeLocked(name, at, ^uint64(0), ConvergeExpired)
	cv.mu.Unlock()
}

// referenceScanLimit is where Open switches from per-member linear
// supersede scans to the one-pass set sweep below. Small fan-outs (the
// steady-state case the zero-alloc ConvergeTrack gate pins) stay on
// the allocation-free path; a batched rebalance re-targeting a
// 10k-member fleet pays one map build instead of an
// O(changed × pending) quadratic scan.
const referenceScanLimit = 32

// supersedeSetLocked supersedes every changed member out of all open
// epochs below limit in one pass over each epoch's pending list,
// closing the epochs it empties.
func (cv *referenceTracker) supersedeSetLocked(changed []pendingMember, at int64, limit uint64) {
	in := make(map[string]struct{}, len(changed))
	for _, ch := range changed {
		in[ch.name] = struct{}{}
	}
	keep := cv.open[:0]
	for _, o := range cv.open {
		if o.epoch >= limit {
			keep = append(keep, o)
			continue
		}
		var last pendingMember
		removed := false
		kept := o.pending[:0]
		for _, p := range o.pending {
			if _, ok := in[p.name]; ok {
				last = p
				removed = true
				continue
			}
			kept = append(kept, p)
		}
		o.pending = kept
		if removed && len(o.pending) == 0 {
			cv.closeLocked(o, at, ConvergeSuperseded, last.name, last.remote)
			continue
		}
		keep = append(keep, o)
	}
	cv.open = keep
}

// removeLocked removes name from every open epoch below limit, closing
// the ones it empties with the given outcome. Iteration compacts the
// open table in place.
func (cv *referenceTracker) removeLocked(name string, at int64, limit uint64, outcome string) {
	keep := cv.open[:0]
	for _, o := range cv.open {
		if o.epoch >= limit {
			keep = append(keep, o)
			continue
		}
		remote, found := false, false
		for i := range o.pending {
			if o.pending[i].name == name {
				remote = o.pending[i].remote
				// Pending is a set: swap-remove, so a 10k-member epoch's
				// ack storm does not memmove half the list per ack.
				o.pending[i] = o.pending[len(o.pending)-1]
				o.pending = o.pending[:len(o.pending)-1]
				found = true
				break
			}
		}
		if found && len(o.pending) == 0 {
			cv.closeLocked(o, at, outcome, name, remote)
			continue
		}
		keep = append(keep, o)
	}
	cv.open = keep
}

// closeLocked records an epoch's closure: histogram, straggler counter, the
// closed-report ring, and a converge flight event naming the straggler.
// The flight append acquires only the ring's own leaf mutex.
func (cv *referenceTracker) closeLocked(o *referenceEpoch, at int64, outcome, straggler string, remote bool) {
	latency := at - o.openedAt
	if latency < 0 {
		latency = 0
	}
	kind := StragglerInproc
	switch {
	case outcome == ConvergeExpired:
		kind = StragglerExpired
	case remote:
		kind = StragglerRemote
	}
	cv.met.latency[outcome].Observe(latency)
	cv.met.stragglers[kind].Inc()
	cv.closed[cv.closedNext] = ConvergeInfo{
		Epoch:         o.epoch,
		Members:       o.members,
		Outcome:       outcome,
		LatencyMicros: latency,
		Straggler:     straggler,
		StragglerKind: kind,
		ClosedAt:      at,
	}
	cv.closedNext = (cv.closedNext + 1) % closedRing
	if cv.closedN < closedRing {
		cv.closedN++
	}
	if cv.rec != nil {
		cv.rec.Append(flight.Event{At: at, Kind: flight.KindConverge,
			App: straggler, A: latency, B: int64(o.members), Epoch: o.epoch})
	}
	o.pending = o.pending[:0]
	cv.free = append(cv.free, o)
}

// acquireLocked recycles an referenceEpoch from the free list.
func (cv *referenceTracker) acquireLocked() *referenceEpoch {
	if n := len(cv.free); n > 0 {
		o := cv.free[n-1]
		cv.free = cv.free[:n-1]
		return o
	}
	return &referenceEpoch{}
}

// insertLocked keeps the open table ascending by epoch, so supersede
// and ack passes see "older" as a prefix even when concurrent notifies
// open epochs out of order.
func (cv *referenceTracker) insertLocked(o *referenceEpoch) {
	i := len(cv.open)
	for i > 0 && cv.open[i-1].epoch > o.epoch {
		i--
	}
	cv.open = append(cv.open, nil)
	copy(cv.open[i+1:], cv.open[i:])
	cv.open[i] = o
}

// OpenEpochs returns how many epochs are still awaiting acks.
func (cv *referenceTracker) OpenEpochs() int {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	return len(cv.open)
}

// Reports returns up to limit of the most recently closed epochs,
// newest first (limit <= 0 returns everything retained).
func (cv *referenceTracker) Reports(limit int) []ConvergeInfo {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	n := cv.closedN
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]ConvergeInfo, n)
	for i := 0; i < n; i++ {
		out[i] = cv.closed[(cv.closedNext-1-i+2*closedRing)%closedRing]
	}
	return out
}
