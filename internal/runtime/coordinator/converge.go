package coordinator

import (
	"sync"
	"sync/atomic"

	"procctl/internal/flight"
	"procctl/internal/metrics"
)

// Convergence tracking: every rebalance that changes at least one
// member's target opens an epoch, and the epoch closes when the last of
// those members acknowledges that it applied its new target — the
// paper's claim ("coordination converges the fleet") turned into a
// measurable per-decision latency. An epoch can also close without
// settling: a later rebalance that re-targets all of its still-pending
// members supersedes it (their old targets will never be acked), and a
// pending member that unregisters or loses its lease expires out of it.
//
// Outcome label values of coordinator_convergence_latency_micros, whose
// _count is the number of epochs closed so.
const (
	ConvergeSettled    = "settled"    // last pending member acked its applied target
	ConvergeSuperseded = "superseded" // a newer epoch re-targeted every pending member
	ConvergeExpired    = "expired"    // the last pending member left the fleet instead of acking
)

// Straggler kinds: how the member that closed the epoch applied (or
// failed to apply) its target. Deliberately a closed set — member
// *names* go into converge reports and flight events, never into metric
// labels, so fleet size cannot explode series cardinality.
const (
	StragglerInproc  = "inproc"  // in-process member; SetTarget applied synchronously
	StragglerRemote  = "remote"  // socket member; ack arrived on a poll
	StragglerExpired = "expired" // member left the fleet with the epoch open
)

// openEpoch is one epoch awaiting acks: a count of the members still
// pending (who they are is in the tracker's per-member index). Closed
// epochs are recycled through the tracker's free list, so the
// open→ack→close cycle allocates nothing in steady state.
type openEpoch struct {
	epoch    uint64
	openedAt int64 // µs, the decision instant (allocation computed)
	members  int   // pending members at open
	waiting  int   // members still pending
}

// pendingMember is one member an epoch opens waiting on; applied is the
// rebalance's note of whether its push applied the target synchronously.
type pendingMember struct {
	name    string
	remote  bool
	applied bool
}

// memberWait is one member's entry in the tracker's index: the open
// epoch it has yet to acknowledge, nil between epochs.
type memberWait struct {
	o      *openEpoch
	remote bool
}

// closedRing bounds how many closed-epoch reports the converge op can
// serve; older reports live on only in the histograms and flight ring.
const closedRing = 64

// convergeMetrics is the tracker's slice of the coordinator registry:
// per-outcome latency histograms, per-kind straggler counters, and an
// open-epochs gauge. All label values come from the closed sets above.
type convergeMetrics struct {
	latency    map[string]*metrics.Histogram
	stragglers map[string]*metrics.Counter
}

func newConvergeMetrics(reg *metrics.Registry) convergeMetrics {
	m := convergeMetrics{
		latency:    make(map[string]*metrics.Histogram, 3),
		stragglers: make(map[string]*metrics.Counter, 3),
	}
	for _, outcome := range []string{ConvergeSettled, ConvergeSuperseded, ConvergeExpired} {
		m.latency[outcome] = reg.Histogram(metrics.Name("coordinator_convergence_latency_micros", "outcome", outcome),
			"decision-to-closed latency of a rebalance epoch", metrics.LatencyBuckets)
	}
	for _, kind := range []string{StragglerInproc, StragglerRemote, StragglerExpired} {
		m.stragglers[kind] = reg.Counter(metrics.Name("coordinator_convergence_stragglers_total", "kind", kind),
			"last member to close an epoch, by how it closed")
	}
	return m
}

// convergeTracker owns the open epochs. Its mutex is a leaf lock below
// c.mu: held only across in-memory bookkeeping and flight-ring appends,
// never across member code or journal I/O (converge events are
// observability-only and are not journaled).
//
// waits is the per-member index. A member is pending in at most one open
// epoch — the coordinator opens them in epoch order under c.mu, and an
// Open takes the members it names out of the older epoch they were still
// pending in — so Open, Ack and Drop are one map probe per member named. A
// member keeps its (empty) entry between epochs: re-opening allocates nothing.
//
// open is written only under mu but read without it, so an ack with
// nothing open takes no lock. That is safe because Open(E) runs under c.mu
// before the fan-out that carries E: an ack that could close E cannot
// arrive before E is counted.
type convergeTracker struct {
	mu    sync.Mutex
	open  atomic.Int64 // epochs still awaiting acks
	free  []*openEpoch
	waits map[string]*memberWait

	closed     [closedRing]ConvergeInfo
	closedNext int
	closedN    int

	rec *flight.Recorder
	met convergeMetrics
}

func newConvergeTracker(reg *metrics.Registry, rec *flight.Recorder) *convergeTracker {
	cv := &convergeTracker{rec: rec, met: newConvergeMetrics(reg), waits: make(map[string]*memberWait)}
	openGauge := reg.Gauge("coordinator_convergence_open_epochs", "rebalance epochs still awaiting member acks")
	reg.OnCollect(func() { openGauge.Set(int64(cv.OpenEpochs())) })
	return cv
}

// Open starts tracking an epoch waiting on the given changed members,
// each named once. Epochs are opened in ascending order. A member still
// pending in an older epoch is superseded out of it first: its old target
// will never be acknowledged. An epoch with no changed members is not
// tracked — nothing propagates, so there is nothing to converge.
func (cv *convergeTracker) Open(epoch uint64, at int64, changed []pendingMember) {
	if cv == nil || len(changed) == 0 {
		return
	}
	cv.mu.Lock()
	o := cv.acquireLocked()
	o.epoch = epoch
	o.openedAt = at
	o.members = len(changed)
	o.waiting = len(changed)
	for _, ch := range changed {
		w := cv.waits[ch.name]
		if w == nil {
			w = new(memberWait)
			cv.waits[ch.name] = w
		}
		cv.leaveLocked(w, ch.name, at, ConvergeSuperseded)
		w.o, w.remote = o, ch.remote
	}
	cv.open.Add(1)
	cv.mu.Unlock()
}

// Ack acknowledges that name has applied the target it was pushed in
// epoch `through`; because targets are delivered newest-wins, this also
// acknowledges an older epoch still waiting on the member. With nothing
// open — a steady fleet's every poll — it is one atomic load.
func (cv *convergeTracker) Ack(name string, through uint64, at int64) {
	if cv == nil || through == 0 || cv.open.Load() == 0 {
		return
	}
	cv.mu.Lock()
	if w := cv.waits[name]; w != nil && w.o != nil && w.o.epoch <= through {
		cv.leaveLocked(w, name, at, ConvergeSettled)
	}
	cv.mu.Unlock()
}

// Drop removes a departed member (unregister, lease expiry, shutdown)
// from the epoch it is pending in, which closes as expired if it was
// waiting only on it.
func (cv *convergeTracker) Drop(name string, at int64) {
	if cv == nil {
		return
	}
	cv.mu.Lock()
	if w := cv.waits[name]; w != nil {
		cv.leaveLocked(w, name, at, ConvergeExpired)
		delete(cv.waits, name)
	}
	cv.mu.Unlock()
}

// leaveLocked takes name out of the epoch it is pending in, if any,
// closing the epoch with the given outcome when name was the last it
// waited on. It is the only way a member leaves an epoch.
func (cv *convergeTracker) leaveLocked(w *memberWait, name string, at int64, outcome string) {
	if o := w.o; o != nil {
		w.o = nil
		if o.waiting--; o.waiting == 0 {
			cv.closeLocked(o, at, outcome, name, w.remote)
		}
	}
}

// closeLocked records an epoch's closure: histogram, straggler counter, the
// closed-report ring, and a converge flight event naming the straggler.
// The flight append acquires only the ring's own leaf mutex.
func (cv *convergeTracker) closeLocked(o *openEpoch, at int64, outcome, straggler string, remote bool) {
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
	cv.open.Add(-1)
	cv.free = append(cv.free, o)
}

// acquireLocked recycles an openEpoch from the free list.
func (cv *convergeTracker) acquireLocked() *openEpoch {
	if n := len(cv.free); n > 0 {
		o := cv.free[n-1]
		cv.free = cv.free[:n-1]
		return o
	}
	return &openEpoch{}
}

// OpenEpochs returns how many epochs are still awaiting acks.
func (cv *convergeTracker) OpenEpochs() int { return int(cv.open.Load()) }

// Reports returns up to limit of the most recently closed epochs,
// newest first (limit <= 0 returns everything retained).
func (cv *convergeTracker) Reports(limit int) []ConvergeInfo {
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
