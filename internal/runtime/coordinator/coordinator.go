// Package coordinator is the paper's centralized server for real Go
// programs: it divides a fixed processor capacity fairly among
// registered adaptive pools (internal/runtime/pool) using the allocation
// policy in internal/core, pushing targets to in-process members and
// serving polled targets to remote ones over a JSON-lines socket
// protocol — the modern analogue of the paper's UMAX socket IPC.
//
// Locking discipline: every member sits in one pointer-stable slot
// (entry), reachable by name through its shard (shard.go) and by
// position through c.order, the table of all slots in registration
// order that a rebalance copies instead of rebuilding. Locks nest only as
// shard.mu → c.mu → convergeTracker.mu, never two shard locks; a
// membership change holds its shard's mutex across its c.mu section, so
// registrations of one name cannot interleave. c.mu guards the order
// table, the scalars and the push state in the slots: one section gives
// a rebalance its members, inputs and epoch (a newer epoch never decides
// on an older membership), a second is where it decides what to push.
// Every Member interface call (Name at registration aside) — Workers,
// Backlog, SetTarget — happens OUTSIDE all critical sections, on the
// rebalance's own copy of the order. Members are arbitrary application
// code; calling them while holding a coordinator lock would make the
// critical section as slow as the slowest member, the convoy pattern the
// blockinglocked analyzer rejects.
package coordinator

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"procctl/internal/core"
	"procctl/internal/flight"
	"procctl/internal/journal"
	"procctl/internal/metrics"
)

// Member is a controllable application: anything that can accept a
// runnable-worker target. *pool.Pool implements it.
type Member interface {
	// Name identifies the member (unique within a coordinator). It is
	// read once, at registration, and must not change afterwards.
	Name() string
	// Workers is the member's process count — the cap on its target.
	Workers() int
	// SetTarget tells the member how many workers it may run.
	SetTarget(n int)
}

// EpochMember is an optional Member extension: accept the target
// together with the epoch of the rebalance that computed it, and report
// whether the target was applied synchronously. In-process members
// (*pool.Pool) apply before returning and answer true — the epoch acks
// immediately. Asynchronous members (the server's socket members store
// the target for the application's next poll) answer false; their ack
// arrives later, through Coordinator.AckApplied. Members implementing
// only plain SetTarget are treated as applying synchronously.
type EpochMember interface {
	SetTargetEpoch(n int, epoch uint64) (applied bool)
}

// entry is one registered member's slot: what the coordinator reads
// about the member, cached at registration so no Member method runs
// inside a critical section, and the push state a rebalance decides on.
// Allocated once per registration, never copied; a same-name
// re-registration gets a new slot that inherits the old one's last pushed
// target. seq numbers the registrations: c.order is ascending in it.
type entry struct {
	m      Member
	epochM EpochMember // m's EpochMember side, nil if it has none
	remote bool        // m is a socket member: its acks arrive on polls
	name   string
	weight int
	seq    uint64

	// Push state, guarded by c.mu.
	pushed    int    // last target a rebalance decided to push (0 before the first)
	hasPushed bool   // pushed is meaningful
	examined  uint64 // newest epoch whose push decision covered this slot
	gone      bool   // unregistered or replaced: no rebalance pushes to it again
}

// Coordinator allocates capacity among members. All methods are safe
// for concurrent use.
type Coordinator struct {
	mu         sync.Mutex // scalars, the order table, the slots' push state
	capacity   int
	external   int // uncontrollable load (processors consumed elsewhere)
	loadAware  bool
	order      []*entry // every live slot, in registration order
	regSeq     uint64   // registrations so far
	rebalances int64    // lifetime rebalance count; the last epoch ID
	targetsSum int64    // Σ pushed over live slots

	shards [shardCount]shard

	met coordMetrics

	// Batched-rebalance state: when batching is on, membership and load
	// events mark dirty and kick the batch goroutine instead of
	// recomputing inline; the goroutine coalesces everything that landed
	// within one window into a single recompute+notify epoch.
	batching atomic.Bool
	dirty    atomic.Bool
	kick     chan struct{}

	rec *flight.Recorder

	// jrn, when set, tees every durable flight event (see
	// journal.Durable) into the write-ahead journal. The pointer is
	// atomic so appends never serialize on a coordinator lock, and
	// journal I/O always happens outside all coordinator locks.
	jrn atomic.Pointer[journal.Writer]

	// conv tracks open rebalance epochs until every changed member acks
	// its applied target (see converge.go).
	conv *convergeTracker

	// snapshots recycles rebalance working sets (a pool: inline
	// rebalances run concurrently).
	snapshots sync.Pool
}

// snapshot is one rebalance's working set: its own copy of the order
// table and the allocation inputs, taken in one c.mu section and
// consumed outside all locks, plus the buffers the decision fills;
// recycled, so a steady rebalance allocates nothing. epoch is the
// identity of the rebalance the snapshot feeds — the lifetime rebalance
// count, which RestoreState resumes across daemon restarts, so epoch IDs
// never repeat within one journal's history; status previews carry 0.
type snapshot struct {
	entries   []*entry
	capacity  int
	external  int
	loadAware bool
	epoch     uint64

	demands []core.Demand
	alloc   []int
	changed []changedPush
	pending []pendingMember
}

// Rebalance span stages, in causal order: the member event waiting on
// and copying state under the shard and scalar locks (snapshot), the
// allocation computed from the copy (recompute), the SetTarget fan-out
// to every member (notify), and the whole span end to end (total). The
// client side records a fifth stage, "apply", into its own registry
// (see DriveOptions).
var rebalanceStages = [...]string{StageSnapshot, StageRecompute, StageNotify, StageTotal}

// Stage label values of coordinator_rebalance_latency_micros.
const (
	StageSnapshot  = "snapshot"
	StageRecompute = "recompute"
	StageNotify    = "notify"
	StageTotal     = "total"
	// StageApply is client-side: poll response received → SetTarget done.
	StageApply = "apply"
)

// DefaultBatchWindow is the rebalance coalescing window StartBatching
// uses when given a non-positive one.
const DefaultBatchWindow = 5 * time.Millisecond

// coordMetrics is the coordinator's slice of a metrics registry. The
// runtime layer runs on the wall clock; the per-stage spans break the
// control loop down so quantiles can say where a large fleet
// bottlenecks (lock wait? allocation? fan-out?), with stage "total" the
// whole rebalance.
type coordMetrics struct {
	reg            *metrics.Registry
	rebalanceCount *metrics.Counter

	// Batch coalescing: flushes is epochs actually recomputed by the
	// batch goroutine, coalesced is membership/load events that were
	// absorbed into an already-pending flush. Their ratio is the fan-out
	// amplification batching saved.
	batchFlushes   *metrics.Counter
	batchCoalesced *metrics.Counter

	// targetsSum is Σ last pushed target, to hold against
	// coordinator_capacity. Per-member targets are in the status op:
	// member names never become label values.
	targetsSum *metrics.Gauge

	stageMicros [len(rebalanceStages)]*metrics.Histogram
	stageCount  [len(rebalanceStages)]*metrics.Counter
}

func newCoordMetrics(reg *metrics.Registry) coordMetrics {
	m := coordMetrics{
		reg:            reg,
		rebalanceCount: reg.Counter("coordinator_rebalances_total", "target recomputations"),
		batchFlushes:   reg.Counter("coordinator_batch_flushes_total", "batched rebalance windows flushed"),
		batchCoalesced: reg.Counter("coordinator_batch_coalesced_total", "rebalance triggers absorbed into an already-pending batch"),
		targetsSum:     reg.Gauge("coordinator_targets_sum", "processors allotted across all members, by last pushed target"),
	}
	for i, stage := range rebalanceStages {
		m.stageMicros[i] = reg.Histogram(metrics.Name("coordinator_rebalance_latency_micros", "stage", stage),
			"wall-clock rebalance span latency by stage", metrics.LatencyBuckets)
		m.stageCount[i] = reg.Counter(metrics.Name("coordinator_rebalance_stages_total", "stage", stage),
			"rebalance span stages recorded")
	}
	return m
}

// observeStage records one stage's duration into its histogram and
// counter.
func (m *coordMetrics) observeStage(i int, d time.Duration) {
	m.stageMicros[i].Observe(d.Microseconds())
	m.stageCount[i].Inc()
}

// New creates a coordinator managing the given processor capacity. A
// non-positive capacity selects runtime.GOMAXPROCS(0), the Go analogue
// of the machine's processor count.
func New(capacity int) *Coordinator {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	c := &Coordinator{
		capacity: capacity,
		kick:     make(chan struct{}, 1),
		rec:      flight.New(flight.DefaultSize),
	}
	c.snapshots.New = func() any { return new(snapshot) }
	c.met = newCoordMetrics(metrics.NewRegistry())
	c.conv = newConvergeTracker(c.met.reg, c.rec)
	c.met.reg.OnCollect(func() {
		c.mu.Lock()
		capacity, external, members, targetsSum := c.capacity, c.external, len(c.order), c.targetsSum
		c.mu.Unlock()
		c.met.targetsSum.Set(targetsSum)
		c.met.reg.Gauge("coordinator_members", "registered controllable applications").Set(int64(members))
		c.met.reg.Gauge("coordinator_capacity", "processors under management").Set(int64(capacity))
		c.met.reg.Gauge("coordinator_external_load", "processors consumed by uncontrollable work").Set(int64(external))
	})
	return c
}

// Metrics returns the coordinator's registry. Pools sharing it (via
// pool.Config.Metrics) and the socket server's RPC counters land in the
// same exportable snapshot.
func (c *Coordinator) Metrics() *metrics.Registry { return c.met.reg }

// SetJournal attaches a write-ahead journal: from this point on, every
// durable control-plane event (registrations, unregistrations, lease
// expiries, target changes, rebalances, load and capacity changes) is
// persisted as well as flight-recorded. Pass nil to detach. Journal
// I/O failures are sticky inside the Writer and never fail the control
// plane: the daemon keeps rebalancing with durability degraded (see
// journal_append_errors_total).
func (c *Coordinator) SetJournal(w *journal.Writer) { c.jrn.Store(w) }

// Journal returns the attached journal writer, if any.
func (c *Coordinator) Journal() *journal.Writer { return c.jrn.Load() }

// RecordEvent appends ev to the flight recorder and, when its kind is
// durable and a journal is attached, persists it. Callers must not
// hold coordinator locks (journal appends do file I/O).
func (c *Coordinator) RecordEvent(ev flight.Event) {
	c.rec.Append(ev)
	c.journalAppend(ev)
}

// journalAppend tees one flight event into the journal, if attached
// and the kind is durable. Append errors are deliberately dropped
// here: the Writer makes them sticky and counts them.
func (c *Coordinator) journalAppend(ev flight.Event) {
	w := c.jrn.Load()
	if w == nil {
		return
	}
	if journal.Durable(ev.Kind) {
		_, _ = w.Append(ev) // the Writer assigns the durable Seq
	}
}

// Snapshot captures every metric stamped with the current wall-clock
// instant (Unix microseconds) — the runtime side has no virtual clock.
func (c *Coordinator) Snapshot() *metrics.Snapshot {
	return c.met.reg.Snapshot(time.Now().UnixMicro())
}

// Capacity returns the managed processor count.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// SetCapacity changes the managed capacity and rebalances.
func (c *Coordinator) SetCapacity(n int) error {
	if n < 1 {
		return fmt.Errorf("coordinator: capacity %d < 1", n)
	}
	start := time.Now()
	c.mu.Lock()
	c.capacity = n
	c.mu.Unlock()
	c.RecordEvent(flight.Event{At: start.UnixMicro(), Kind: flight.KindSetCapacity, A: int64(n)})
	c.requestRebalance(start)
	return nil
}

// SetExternalLoad reports how many processors uncontrollable work is
// consuming (the paper's "runnable processes not belonging to
// controllable applications"); the coordinator divides only the rest.
func (c *Coordinator) SetExternalLoad(n int) {
	if n < 0 {
		n = 0
	}
	start := time.Now()
	c.mu.Lock()
	c.external = n
	c.mu.Unlock()
	c.RecordEvent(flight.Event{At: start.UnixMicro(), Kind: flight.KindSetLoad, A: int64(n)})
	c.requestRebalance(start)
}

// ExternalLoad returns the current uncontrollable-load estimate.
func (c *Coordinator) ExternalLoad() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.external
}

// Register adds a member (replacing any member with the same name) and
// rebalances, pushing fresh targets to every member.
func (c *Coordinator) Register(m Member) {
	c.RegisterWeighted(m, 1)
}

// RegisterWeighted adds a member whose fair share is weight times a unit
// share. Weights below 1 are treated as 1.
func (c *Coordinator) RegisterWeighted(m Member, weight int) {
	if weight < 1 {
		weight = 1
	}
	name := m.Name() // interface call before taking any lock
	start := time.Now()
	c.insert(m, name, weight)
	c.RecordEvent(flight.Event{At: start.UnixMicro(), Kind: flight.KindRegister, App: name, A: int64(m.Workers()), B: int64(weight)})
	c.requestRebalance(start)
}

// insert seats a member's new slot in its shard, replacing any slot with
// the same name, and at the back of the order table (a re-registered
// member moves to the end of allocation order), under the shard lock. A
// replaced slot is retired and hands over its last pushed target as the
// new one becomes visible to a rebalance, so the name's next target
// record still journals the change from that value.
func (c *Coordinator) insert(m Member, name string, weight int) *entry {
	e := &entry{m: m, name: name, weight: weight}
	e.epochM, _ = m.(EpochMember)
	_, e.remote = m.(*remoteMember)
	sh := &c.shards[shardIndex(name)]
	sh.lock()
	old := sh.removeLocked(name)
	sh.entries = append(sh.entries, e)
	sh.weightSum += weight
	sh.registers++
	c.mu.Lock()
	if old != nil {
		c.retireLocked(old)
		e.pushed, e.hasPushed = old.pushed, old.hasPushed
	}
	c.regSeq++
	e.seq = c.regSeq
	c.order = append(c.order, e)
	c.mu.Unlock()
	sh.mu.Unlock()
	return e
}

// retireLocked takes a slot out of the order table and marks it gone: a
// rebalance that snapshotted it neither pushes to nor journals a target
// for a member that has left.
func (c *Coordinator) retireLocked(e *entry) {
	i := slices.Index(c.order, e)
	c.order = slices.Delete(c.order, i, i+1)
	e.gone = true
}

// RestoreMember re-seats a member recovered from the journal without
// rebalancing, flight-recording, or journaling: recovery replays
// history, it does not create it. lastTarget primes the target-change
// dedup so the post-restore rebalance journals only genuine changes.
// Members are expected to be restored before the journal is attached
// and before the server accepts traffic. Restoration order is
// allocation order (the recovery path restores in sorted-name order,
// matching the journal snapshot's canonical order).
func (c *Coordinator) RestoreMember(m Member, weight, lastTarget int) {
	if weight < 1 {
		weight = 1
	}
	name := m.Name() // interface call before taking any lock
	e := c.insert(m, name, weight)
	c.mu.Lock()
	c.targetsSum += int64(lastTarget - e.pushed)
	e.pushed, e.hasPushed = lastTarget, true
	c.mu.Unlock()
}

// RestoreState primes the scalar state recovered from the journal —
// external load and the lifetime rebalance count — so the restarted
// daemon continues the old incarnation's durable history instead of
// restarting it. Like RestoreMember, it neither rebalances nor
// journals.
func (c *Coordinator) RestoreState(external int, rebalances int64) {
	if external < 0 {
		external = 0
	}
	c.mu.Lock()
	c.external = external
	c.rebalances = rebalances
	c.mu.Unlock()
}

// LastPushed returns the last target actually pushed to the named
// member, if one ever was. It scans the order table: a diagnostic.
func (c *Coordinator) LastPushed(name string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.order {
		if e.name == name {
			return e.pushed, e.hasPushed
		}
	}
	return 0, false
}

// Unregister removes the named member and redistributes its processors.
func (c *Coordinator) Unregister(name string) {
	c.unregister(name, true)
}

// UnregisterQuiet is Unregister without the journal append — and
// without the departure rebalance. The server's clean-shutdown path
// uses it: members dropped because the daemon is exiting are not
// leaving the fleet, so journaling their departure would make recovery
// reconstruct an empty registry, and rebalancing over the shrinking
// remainder would journal target decisions that a replay of the
// (deliberately unjournaled) departures cannot explain. The flight
// event still lands in the ring for post-mortems.
func (c *Coordinator) UnregisterQuiet(name string) {
	c.unregister(name, false)
}

func (c *Coordinator) unregister(name string, durable bool) {
	start := time.Now()
	sh := &c.shards[shardIndex(name)]
	sh.lock()
	e := sh.removeLocked(name)
	if e != nil {
		sh.unregisters++
		c.mu.Lock()
		c.retireLocked(e)
		c.targetsSum -= int64(e.pushed)
		c.mu.Unlock()
	}
	sh.mu.Unlock()
	if e != nil {
		// e.pushed is final: nothing decides for a retired slot.
		ev := flight.Event{At: start.UnixMicro(), Kind: flight.KindUnregister, App: name, A: int64(e.pushed)}
		c.rec.Append(ev)
		if durable {
			c.journalAppend(ev)
			// A departed member will never ack: expire it out of every
			// epoch still waiting on it before the epoch its departure
			// opens.
			c.conv.Drop(name, start.UnixMicro())
		}
	}
	if !durable {
		return
	}
	c.requestRebalance(start)
}

// snapshotNext takes the snapshot a rebalance passes to notify: the
// bumped rebalance count doubles as its epoch ID.
func (c *Coordinator) snapshotNext() *snapshot { return c.take(true) }

// take fills a pooled snapshot in one c.mu section; the caller releases
// it. The order table is copied as it stands: it is kept in registration
// order, the order the allocation policy is sensitive to. Without next
// the epoch stays 0: status paths (Targets, MemberInfos) preview the
// allocation, they do not perform a rebalance.
func (c *Coordinator) take(next bool) *snapshot {
	s := c.snapshots.Get().(*snapshot)
	c.mu.Lock()
	defer c.mu.Unlock()
	s.entries = append(s.entries[:0], c.order...)
	s.capacity, s.external, s.loadAware, s.epoch = c.capacity, c.external, c.loadAware, 0
	if next {
		c.rebalances++
		s.epoch = uint64(c.rebalances)
	}
	return s
}

// release returns a snapshot to the pool without its references to
// slots and names, so a pooled one keeps no departed member alive.
func (c *Coordinator) release(s *snapshot) {
	clear(s.entries)
	clear(s.changed)
	clear(s.pending)
	c.snapshots.Put(s)
}

// Members returns the registered member names in registration order.
func (c *Coordinator) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, len(c.order))
	for i, e := range c.order {
		names[i] = e.name
	}
	return names
}

// Rebalance recomputes and pushes all targets. Registration changes do
// this automatically; call it after a member's Workers count changes.
func (c *Coordinator) Rebalance() {
	c.requestRebalance(time.Now())
}

// requestRebalance either recomputes inline (the default: every
// membership or load event rebalances synchronously, so callers
// observe fresh targets on return) or, when batching is on, marks the
// fleet dirty and kicks the batch goroutine, which coalesces all
// events arriving within one window into a single epoch.
func (c *Coordinator) requestRebalance(start time.Time) {
	if !c.batching.Load() {
		c.rebalanceNow(start)
		return
	}
	if c.dirty.CompareAndSwap(false, true) {
		select {
		case c.kick <- struct{}{}:
		default:
		}
		return
	}
	c.met.batchCoalesced.Inc()
}

// rebalanceNow performs one recompute+notify epoch immediately.
func (c *Coordinator) rebalanceNow(start time.Time) {
	c.notify(c.snapshotNext(), start)
}

// StartBatching switches the coordinator to epoch-batched rebalancing
// until the returned stop function is called: membership and load
// events mark the fleet dirty, and a single goroutine coalesces
// everything landing within one window into one recompute+notify.
// Epoch provenance is preserved — the flushed epoch's changed set is
// exactly the net effect of the coalesced events, the convergence
// tracker opens it before fan-out as always, and the journal sees one
// rebalance record (plus net target changes) per flush instead of per
// event. stop flushes any pending work synchronously before returning,
// so a clean shutdown never strands a dirty fleet.
func (c *Coordinator) StartBatching(window time.Duration) (stop func()) {
	if window <= 0 {
		window = DefaultBatchWindow
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	c.batching.Store(true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.batchLoop(window, done)
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.batching.Store(false) // new triggers rebalance inline again
			close(done)
			wg.Wait()
			c.flushBatch() // anything marked dirty before the switch
		})
	}
}

// batchLoop sleeps until kicked, waits out the coalescing window, and
// flushes. One timer allocation per flush is noise next to the fan-out
// it batches.
func (c *Coordinator) batchLoop(window time.Duration, done chan struct{}) {
	for {
		select {
		case <-done:
			c.flushBatch()
			return
		case <-c.kick:
		}
		t := time.NewTimer(window)
		select {
		case <-done:
			t.Stop()
			c.flushBatch()
			return
		case <-t.C:
		}
		c.flushBatch()
	}
}

// flushBatch recomputes once if any event marked the fleet dirty since
// the last flush.
func (c *Coordinator) flushBatch() {
	if !c.dirty.Swap(false) {
		return
	}
	c.met.batchFlushes.Inc()
	c.rebalanceNow(time.Now())
}

// Rebalances returns how many times targets were recomputed.
func (c *Coordinator) Rebalances() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebalances
}

// Targets returns the most recently computed target per member name.
func (c *Coordinator) Targets() map[string]int {
	snap := c.take(false)
	defer c.release(snap)
	alloc := c.allocate(snap)
	out := make(map[string]int, len(snap.entries))
	for i, e := range snap.entries {
		out[e.name] = alloc[i]
	}
	return out
}

// MemberInfo describes one registered member for status reporting.
type MemberInfo struct {
	Name    string
	Weight  int
	Workers int
	Target  int
	// Member is the registered implementation, for optional-interface
	// probes (spin sampling). Call it only outside coordinator locks.
	Member Member
	pushed int // last target actually pushed, for JournalState
}

// MemberInfos returns a consistent status view of the membership: names
// and weights as registered, live Workers counts, and the target each
// member would be assigned right now. Member methods run after all
// coordinator locks are released.
func (c *Coordinator) MemberInfos() []MemberInfo {
	snap := c.take(false)
	defer c.release(snap)
	alloc := c.allocate(snap)
	out := make([]MemberInfo, len(snap.entries))
	for i, e := range snap.entries {
		out[i] = MemberInfo{
			Name:    e.name,
			Weight:  e.weight,
			Workers: e.m.Workers(),
			Target:  alloc[i],
			Member:  e.m,
		}
	}
	c.mu.Lock()
	for i, e := range snap.entries {
		out[i].pushed = e.pushed
	}
	c.mu.Unlock()
	return out
}

// allocate computes the processor split for a snapshot into its own
// buffers. It runs outside all locks: demandOf calls into member code
// (Workers, Backlog, Executing).
func (c *Coordinator) allocate(snap *snapshot) []int {
	snap.demands = snap.demands[:0]
	for _, e := range snap.entries {
		snap.demands = append(snap.demands, demandOf(e, snap.loadAware))
	}
	snap.alloc = core.AllocateInto(snap.alloc, core.Available(snap.capacity, snap.external), snap.demands)
	return snap.alloc
}

// notify recomputes targets for a snapshot, pushes them to every member
// in it, entirely outside coordinator locks, and recycles the snapshot.
// Concurrent calls (inline rebalances from several connections) are
// ordered in the c.mu section between allocation and fan-out: a
// rebalance skips — no changed entry, no push, no target record — every
// slot a newer epoch has already decided and every slot retired since
// its snapshot, records in the rest what it is about to push, and opens
// its epoch in the convergence tracker before the next decision gets in,
// so slots, journal and tracker agree, in epoch order. The pushes still
// run unlocked and may land out of order: a socket member refuses a
// target older than the one it holds; an in-process member that ignores
// epochs may briefly run the older of two racing targets, until the next
// rebalance (each pushes to every member it decides for) corrects it.
//
// start is when the triggering member event entered the coordinator:
// the span from start to the snapshot's release is the "snapshot" stage
// (lock wait plus state copy), then "recompute" (allocation), then
// "notify" (the SetTarget fan-out — the stage that grows with fleet
// size), with "total" covering the whole span. Each stage lands in
// coordinator_rebalance_latency_micros{stage=...}; the completed span
// and any target changes land in the flight recorder.
func (c *Coordinator) notify(snap *snapshot, start time.Time) {
	snapDone := time.Now()
	c.met.rebalanceCount.Inc()
	alloc := c.allocate(snap)
	recomputeDone := time.Now()

	entries, epoch := snap.entries, snap.epoch
	changed, pending := snap.changed[:0], snap.pending[:0]
	c.mu.Lock()
	for i, e := range entries {
		if e.gone || e.examined > epoch {
			entries[i] = nil
			continue
		}
		e.examined = epoch
		if !e.hasPushed || e.pushed != alloc[i] {
			changed = append(changed, changedPush{idx: i, old: e.pushed, name: e.name})
			pending = append(pending, pendingMember{name: e.name, remote: e.remote})
			c.targetsSum += int64(alloc[i] - e.pushed)
			e.pushed, e.hasPushed = alloc[i], true
		}
	}
	// The epoch must be open before any member can ack it.
	c.conv.Open(epoch, recomputeDone.UnixMicro(), pending)
	c.mu.Unlock()
	snap.changed, snap.pending = changed, pending

	next := 0 // the changed entry the fan-out reaches next
	for i, e := range entries {
		if e == nil {
			continue
		}
		applied := true
		if e.epochM != nil {
			applied = e.epochM.SetTargetEpoch(alloc[i], epoch)
		} else {
			e.m.SetTarget(alloc[i])
		}
		if next < len(changed) && changed[next].idx == i {
			changed[next].applied = applied
			next++
		}
	}
	end := time.Now()
	for i, d := range []time.Duration{snapDone.Sub(start), recomputeDone.Sub(snapDone), end.Sub(recomputeDone), end.Sub(start)} {
		c.met.observeStage(i, d)
	}
	c.RecordEvent(flight.Event{At: end.UnixMicro(), Kind: flight.KindRebalance,
		A: end.Sub(start).Microseconds(), B: int64(len(entries)), Epoch: epoch})
	for _, ch := range changed {
		c.RecordEvent(flight.Event{At: end.UnixMicro(), Kind: flight.KindTarget,
			App: ch.name, A: int64(alloc[ch.idx]), B: int64(ch.old), Epoch: epoch})
	}
	// Synchronous appliers ack after their change is on record, so the
	// converge event never precedes its target event in the ring.
	for _, ch := range changed {
		if ch.applied {
			c.conv.Ack(ch.name, epoch, end.UnixMicro())
		}
	}
	c.release(snap)
}

// changedPush is one target change a rebalance fan-out delivers.
type changedPush struct {
	idx     int // index into the snapshot's entries
	old     int // previous pushed target (0 if never pushed)
	applied bool
	name    string
}

// AckApplied records that the named member has applied the target it
// was pushed in the given epoch (and, transitively, every older one).
// The server calls it when a poll carries the client's applied-epoch
// acknowledgement; at is the acknowledging request's arrival in Unix
// microseconds.
func (c *Coordinator) AckApplied(name string, epoch uint64, at int64) {
	c.conv.Ack(name, epoch, at)
}

// OpenEpochs returns how many rebalance epochs are still awaiting acks.
func (c *Coordinator) OpenEpochs() int { return c.conv.OpenEpochs() }

// ConvergeReports returns up to limit of the most recently closed
// epochs, newest first (limit <= 0 returns everything retained).
func (c *Coordinator) ConvergeReports(limit int) []ConvergeInfo { return c.conv.Reports(limit) }

// Events returns up to limit of the most recent flight-recorder events,
// oldest first (limit <= 0 returns everything retained). The recorder
// is always on: registrations, lease expiries, target changes, and
// rebalance spans are captured with no tracing enabled in advance.
func (c *Coordinator) Events(limit int) []flight.Event { return c.rec.Snapshot(limit) }

// FlightRecorder exposes the coordinator's recorder so co-located
// layers (the socket server, the daemon binary) append into the same
// timeline.
func (c *Coordinator) FlightRecorder() *flight.Recorder { return c.rec }

// Loader is an optional Member extension: a member that can report how
// much work it actually has (queued + executing tasks). With
// SetLoadAware(true), the coordinator caps an idle member's demand at
// its load, so pools with no backlog stop holding processors that busy
// pools could use. *pool.Pool implements it.
type Loader interface {
	Backlog() int
	Executing() int
}

// SetLoadAware toggles load-aware allocation and rebalances.
func (c *Coordinator) SetLoadAware(on bool) {
	start := time.Now()
	c.mu.Lock()
	c.loadAware = on
	c.mu.Unlock()
	c.requestRebalance(start)
}

// demandOf computes a member's Demand. It calls into member code and
// must therefore never run under a coordinator lock.
func demandOf(e *entry, loadAware bool) core.Demand {
	d := core.Demand{Max: e.m.Workers(), Weight: e.weight}
	if !loadAware {
		return d
	}
	if l, ok := e.m.(Loader); ok {
		load := l.Backlog() + l.Executing()
		if load < 1 {
			load = 1 // keep one worker warm for arrival latency
		}
		if load < d.Max {
			d.Max = load
		}
	}
	return d
}

// StartAutoRebalance recomputes targets every interval until the
// returned stop function is called. Use it with SetLoadAware, whose
// inputs (pool backlogs) change without membership events.
func (c *Coordinator) StartAutoRebalance(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				c.Rebalance()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
