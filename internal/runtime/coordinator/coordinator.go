// Package coordinator is the paper's centralized server for real Go
// programs: it divides a fixed processor capacity fairly among
// registered adaptive pools (internal/runtime/pool) using the allocation
// policy in internal/core, pushing targets to in-process members and
// serving polled targets to remote ones over a JSON-lines socket
// protocol — the modern analogue of the paper's UMAX socket IPC — with
// the resilient client that polls it (the paper's 6-second loop). The
// chaos suite one directory up runs it and pool, the real-process side of
// procctl, together under injected failures.
//
// Locking discipline: the membership — who is registered, in what order,
// with what weight and what last decided target — is one core.Registry
// under c.mu, the state machine the simulated server and journal
// recovery run on. Locks nest only as jmu → c.mu → convergeTracker.mu
// (the flight ring's own mutex is a leaf under all three). A membership
// change is one c.mu section. A rebalance is two: the first copies the
// members' handles in registration order; the second bumps the epoch,
// decides, records what moved and opens the epoch in the convergence
// tracker, so epoch order is decision order and an epoch never waits on a
// member that had left when it was decided. Every event that changes the
// registry is emitted inside the c.mu section that makes the change
// (emitLocked: the flight ring, and a queue of the durable ones); the
// journal's file I/O stays outside c.mu, in journalFlush, which drains the
// queue under jmu, the journal's order lock — so ring and journal are in
// registry order, and a snapshot cut there holds exactly the records
// before it. Every Member interface call (Name at registration aside) —
// Workers, Backlog, SetTarget — happens OUTSIDE all critical sections, on
// the rebalance's own copy of the handles: the caps a decision divides
// under are sampled between the two sections, the targets pushed after
// the second. Members are arbitrary application code; calling them under
// a coordinator lock would make the critical section as slow as the
// slowest member, the convoy pattern the blockinglocked analyzer rejects.
package coordinator

import (
	"fmt"
	"runtime"
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

// entry is a member's Handle in the registry: what the registry cannot
// know about it — the member itself, cached at registration so no Member
// method runs inside a critical section, and the cap the next decision
// divides under. Allocated once per registration.
type entry struct {
	m      Member
	epochM EpochMember // m's EpochMember side, nil if it has none
	remote bool        // m is a socket member: its acks arrive on polls
	// cap is the member's demand cap — its process count, or its load
	// when load-aware — as last sampled outside all locks, at registration
	// and by every rebalance before it decides.
	cap atomic.Int64
}

func newEntry(m Member, cap int) *entry {
	e := &entry{m: m}
	e.epochM, _ = m.(EpochMember)
	_, e.remote = m.(*remoteMember)
	e.cap.Store(int64(cap))
	return e
}

// Coordinator allocates capacity among members. All methods are safe
// for concurrent use.
type Coordinator struct {
	mu sync.Mutex
	// reg is the only record of membership, order, procs, weight,
	// capacity, external load, decision count (the last epoch ID, which
	// Restore resumes across daemon restarts, so epoch IDs never repeat
	// within one journal's history) and last decided targets.
	reg        *core.Registry[string]
	loadAware  bool
	targetsSum int64 // Σ last decided target over the members

	met coordMetrics

	// Batched-rebalance state: when batching is on, membership and load
	// events mark dirty and kick the batch goroutine instead of
	// recomputing inline; the goroutine coalesces everything that landed
	// within one window into a single recompute+notify epoch.
	batching atomic.Bool
	dirty    atomic.Bool
	kick     chan struct{}

	rec *flight.Recorder

	// jrn, when set, is the write-ahead journal the durable flight events
	// (journal.Durable) go to; jq, under c.mu, those emitted since the last
	// drain (journalFlush, serialized by jmu); jspare, under jmu, its spare.
	jrn    atomic.Pointer[journal.Writer]
	jq     []flight.Event
	jmu    sync.Mutex
	jspare []flight.Event

	// conv tracks open rebalance epochs until every changed member acks
	// its applied target (see converge.go).
	conv *convergeTracker

	// snapshots recycles rebalance working sets (a pool: inline
	// rebalances run concurrently).
	snapshots sync.Pool
}

// snapshot is one rebalance's working set, recycled so a steady
// rebalance allocates nothing: the members' handles in registration
// order — first those whose caps it samples, then, with their targets,
// those it pushes to — and, in the same order, whose targets it moved.
type snapshot struct {
	pushes  []push
	pending []pendingMember
}

// push is one member's share of a fan-out; moved marks the targets the
// decision changed, the ones the epoch waits on.
type push struct {
	e      *entry
	target int
	moved  bool
}

// Rebalance span stages, in causal order: the member event waiting on
// c.mu and copying the handles (snapshot), the caps sampled and the
// decision made (recompute), the SetTarget fan-out to every member — the
// stage that grows with fleet size — (notify), and the whole span end to
// end (total). The client side records a fifth stage, "apply", into its
// own registry (see DriveOptions).
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
	leaseExpiries  *metrics.Counter

	// Batch coalescing: flushes is epochs actually recomputed by the
	// batch goroutine, coalesced is membership/load events that were
	// absorbed into an already-pending flush. Their ratio is the fan-out
	// amplification batching saved.
	batchFlushes   *metrics.Counter
	batchCoalesced *metrics.Counter

	// targetsSum is Σ last decided target, to hold against capacity.
	// Per-member targets are in the status op: member names never become
	// label values. All four are set when a snapshot is collected.
	targetsSum, members, capacity, external *metrics.Gauge

	stageMicros [len(rebalanceStages)]*metrics.Histogram
	stageCount  [len(rebalanceStages)]*metrics.Counter
}

func newCoordMetrics(reg *metrics.Registry) coordMetrics {
	m := coordMetrics{
		reg:            reg,
		rebalanceCount: reg.Counter("coordinator_rebalances_total", "target recomputations"),
		leaseExpiries:  reg.Counter("coordinator_lease_expiries_total", "members unregistered because their connection went silent past its lease"),
		batchFlushes:   reg.Counter("coordinator_batch_flushes_total", "batched rebalance windows flushed"),
		batchCoalesced: reg.Counter("coordinator_batch_coalesced_total", "rebalance triggers absorbed into an already-pending batch"),
		targetsSum:     reg.Gauge("coordinator_targets_sum", "processors allotted across all members, by last pushed target"),
		members:        reg.Gauge("coordinator_members", "registered controllable applications"),
		capacity:       reg.Gauge("coordinator_capacity", "processors under management"),
		external:       reg.Gauge("coordinator_external_load", "processors consumed by uncontrollable work"),
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
		reg:  core.NewRegistry[string](capacity),
		kick: make(chan struct{}, 1),
		rec:  flight.New(flight.DefaultSize),
	}
	c.snapshots.New = func() any { return new(snapshot) }
	c.met = newCoordMetrics(metrics.NewRegistry())
	c.conv = newConvergeTracker(c.met.reg, c.rec)
	c.met.reg.OnCollect(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.met.targetsSum.Set(c.targetsSum)
		c.met.members.Set(int64(c.reg.Len()))
		c.met.capacity.Set(int64(c.reg.Capacity))
		c.met.external.Set(int64(c.reg.External))
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
// persisted as well as flight-recorded, in the order the registry changed.
// Pass nil to detach. Journal I/O failures are sticky inside the Writer
// and never fail the control plane: the daemon keeps rebalancing with
// durability degraded (see journal_append_errors_total).
func (c *Coordinator) SetJournal(w *journal.Writer) {
	c.journalFlush(false) // what the outgoing journal is still owed
	c.jrn.Store(w)
}

// Journal returns the attached journal writer, if any.
func (c *Coordinator) Journal() *journal.Writer { return c.jrn.Load() }

// RecordEvent appends ev to the flight recorder and, when its kind is
// durable and a journal is attached, persists it. Callers must not
// hold coordinator locks (journal appends do file I/O).
func (c *Coordinator) RecordEvent(ev flight.Event) {
	c.mu.Lock()
	c.emitLocked(ev)
	c.mu.Unlock()
	c.journalFlush(false)
}

// emitLocked records an event inside the c.mu section that makes the
// change it describes: in the flight ring and, if durable, on the queue.
func (c *Coordinator) emitLocked(ev flight.Event) {
	c.rec.Append(ev)
	if journal.Durable(ev.Kind) && c.jrn.Load() != nil {
		c.jq = append(c.jq, ev)
	}
}

// journalFlush appends the queued events to the journal in the order they
// were emitted. Every path that may have queued one calls it once it holds
// no coordinator lock; when it returns, everything emitted before the call
// is in. With state, or when a snapshot has come due, the c.mu section
// that takes the queue also copies the registry: the copy — returned, and
// snapshotted when due — has seen exactly the records up to the queue's
// last, and jmu keeps any other from landing before the snapshot.
func (c *Coordinator) journalFlush(state bool) (reg *core.Registry[string]) {
	w := c.jrn.Load()
	if w == nil && !state {
		return nil
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	due := w != nil && w.ShouldSnapshot()
	var members []core.Member[string]
	c.mu.Lock()
	evs := c.jq
	c.jq = c.jspare[:0]
	if state || due {
		reg = core.NewRegistry[string](c.reg.Capacity)
		reg.External, reg.Decisions = c.reg.External, c.reg.Decisions
		members = c.reg.Members()
	}
	c.mu.Unlock()
	for _, m := range members {
		reg.Register(m.Key, m.Procs, m.Weight, m.LastSeen)
		reg.SetTarget(m.Key, m.Target)
	}
	if w != nil {
		//procctl:allow-blockinglocked jmu is the journal's order serializer; file I/O under it is what it is for
		c.journalWrite(w, evs, due, reg)
	}
	clear(evs) // the spare buffer keeps no name alive
	c.jspare = evs
	return reg
}

// journalWrite is the only place the journal is written from. Append
// errors are deliberately dropped: the Writer makes them sticky and
// counts them.
func (c *Coordinator) journalWrite(w *journal.Writer, evs []flight.Event, snapshot bool, reg *core.Registry[string]) {
	for _, ev := range evs {
		_, _ = w.Append(ev) // the Writer assigns the durable Seq
	}
	if !snapshot {
		return
	}
	if st := journal.Snapshot(reg, 0, time.Now().UnixMicro()); w.WriteSnapshot(st) == nil {
		c.rec.Append(flight.Event{At: st.At, Kind: flight.KindSnapshot, A: int64(w.NextSeq() - 1)})
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
	return c.reg.Capacity
}

// SetCapacity changes the managed capacity and rebalances.
func (c *Coordinator) SetCapacity(n int) error {
	if n < 1 {
		return fmt.Errorf("coordinator: capacity %d < 1", n)
	}
	start := time.Now()
	c.mu.Lock()
	c.reg.Capacity = n
	c.emitLocked(flight.Event{At: start.UnixMicro(), Kind: flight.KindSetCapacity, A: int64(n)})
	c.mu.Unlock()
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
	c.reg.External = n
	c.emitLocked(flight.Event{At: start.UnixMicro(), Kind: flight.KindSetLoad, A: int64(n)})
	c.mu.Unlock()
	c.requestRebalance(start)
}

// ExternalLoad returns the current uncontrollable-load estimate.
func (c *Coordinator) ExternalLoad() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.External
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
	name, procs := m.Name(), m.Workers() // interface calls before taking any lock
	e := newEntry(m, procs)
	start := time.Now()
	c.mu.Lock()
	// A name already registered moves to the end of allocation order and
	// keeps its target: its next target record journals the change from it.
	// Its handle is replaced: whoever held the name holds it no more.
	c.reg.Register(name, procs, weight, start.UnixMicro()).Handle = e
	c.emitLocked(flight.Event{At: start.UnixMicro(), Kind: flight.KindRegister, App: name, A: int64(procs), B: int64(weight)})
	c.mu.Unlock()
	c.requestRebalance(start)
}

// restore adopts the registry recovered from a journal in place of the
// coordinator's own, keeping only the capacity it was created with, and
// returns the placeholders it seated (remote members of no connection,
// for clients to claim by claimBy), in the state's (name) order. It
// neither rebalances nor records: recovery replays history, it does not
// create it. See Server.Restore.
func (c *Coordinator) restore(st journal.State, claimBy time.Time) []*remoteMember {
	reg := st.Registry()
	members := make([]*remoteMember, 0, reg.Len())
	var sum int64
	reg.Visit(func(m *core.Member[string]) {
		rm := &remoteMember{name: m.Key, procs: m.Procs, claimBy: claimBy}
		rm.SetTargetEpoch(m.Target, 0) // the restoring epoch is unknown; nothing to ack
		m.Handle = newEntry(rm, m.Procs)
		members = append(members, rm)
		sum += int64(m.Target)
	})
	c.mu.Lock()
	reg.Capacity = c.reg.Capacity
	c.reg, c.targetsSum = reg, sum
	c.mu.Unlock()
	return members
}

// members returns a copy of the membership, handles included, for the
// status paths to work on outside c.mu.
func (c *Coordinator) members() []core.Member[string] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.Members()
}

// Unregister removes the named member and redistributes its processors.
func (c *Coordinator) Unregister(name string) {
	start := time.Now()
	c.mu.Lock()
	if m, ok := c.reg.Get(name); ok {
		c.removeLocked(&m, true, start, 0, 0)
	}
	c.mu.Unlock()
	c.requestRebalance(start)
}

// drop removes, in one c.mu section, those of members that still hold
// their names — a socket member is made per registration, so a name
// registered again since (a restarted client, a claimed placeholder) has
// another handle and stays — and redistributes their processors. With
// expired set (Unix microseconds) the sweep of that instant presumed them
// dead: each one's lease_expiry event, saying how many expired together,
// goes ahead of its unregister event in the section that removes it.
//
// A removal that is not durable skips the journal and the departure
// rebalance — the server's clean-shutdown path: members dropped because
// the daemon is exiting are not leaving the fleet, so journaling their
// departure would make recovery reconstruct an empty registry, and a
// rebalance over the remainder would journal decisions no replay of the
// journal can explain. The flight event still lands in the ring.
func (c *Coordinator) drop(members []*remoteMember, durable bool, expired int64) {
	start, n := time.Now(), 0
	c.mu.Lock()
	for _, rm := range members {
		if _, ok := c.heldLocked(rm); ok {
			n++
		}
	}
	for _, rm := range members {
		if m, ok := c.heldLocked(rm); ok {
			c.removeLocked(&m, durable, start, expired, n)
		}
	}
	c.mu.Unlock()
	if durable && n > 0 {
		c.requestRebalance(start)
	}
}

// heldLocked returns the registry's member of rm's name if it is still rm.
func (c *Coordinator) heldLocked(rm *remoteMember) (core.Member[string], bool) {
	m, ok := c.reg.Get(rm.name)
	return m, ok && m.Handle.(*entry).m == Member(rm)
}

// removeLocked takes m, a member the registry holds, out of it and emits
// its events (see drop).
func (c *Coordinator) removeLocked(m *core.Member[string], durable bool, at time.Time, expired int64, with int) {
	c.reg.Remove(m.Key)
	c.targetsSum -= int64(m.Target)
	ev := flight.Event{At: at.UnixMicro(), Kind: flight.KindUnregister, App: m.Key, A: int64(m.Target)}
	if !durable {
		c.rec.Append(ev)
		return
	}
	// A departed member will never ack: it leaves the epoch still waiting
	// on it as it leaves the registry, so no later epoch finds it in either.
	c.conv.Drop(m.Key, at.UnixMicro())
	if expired != 0 {
		c.met.leaseExpiries.Inc()
		c.emitLocked(flight.Event{At: expired, Kind: flight.KindLeaseExpiry, App: m.Key, A: int64(with)})
	}
	c.emitLocked(ev)
}

// Members returns the registered member names in registration order.
func (c *Coordinator) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, c.reg.Len())
	c.reg.Visit(func(m *core.Member[string]) { names = append(names, m.Key) })
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
// events arriving within one window into a single epoch. Either way it
// sees what the caller queued into the journal.
func (c *Coordinator) requestRebalance(start time.Time) {
	if !c.batching.Load() {
		c.rebalanceNow(start)
		return
	}
	c.journalFlush(false)
	if c.dirty.CompareAndSwap(false, true) {
		select {
		case c.kick <- struct{}{}:
		default:
		}
		return
	}
	c.met.batchCoalesced.Inc()
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
	return c.reg.Decisions
}

// Targets returns the most recently decided target per member name.
func (c *Coordinator) Targets() map[string]int {
	members := c.members()
	out := make(map[string]int, len(members))
	for i := range members {
		out[members[i].Key] = running(&members[i])
	}
	return out
}

// running is what a member runs on: its last decided target, or all of
// the processes it registered while no decision has reached it yet (a
// registration inside a batch window).
func running(m *core.Member[string]) int {
	if m.HasTarget {
		return m.Target
	}
	return m.Procs
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
}

// MemberInfos returns a consistent status view of the membership: names
// and weights as registered, the last decided targets, and live Workers
// counts. Member methods run after all coordinator locks are released.
func (c *Coordinator) MemberInfos() []MemberInfo {
	members := c.members()
	out := make([]MemberInfo, len(members))
	for i := range members {
		m := &members[i]
		mm := m.Handle.(*entry).m
		out[i] = MemberInfo{Name: m.Key, Weight: m.Weight, Workers: mm.Workers(), Target: running(m), Member: mm}
	}
	return out
}

// rebalanceNow performs one epoch immediately: it samples every member's
// cap, decides, and pushes the targets to every member, the member calls
// outside coordinator locks on its own copy of the handles. Concurrent
// calls (inline rebalances from several connections) are ordered by the
// c.mu section that decides: it takes the next epoch, runs
// Registry.Decide over the membership as it stands, emits the epoch's
// rebalance event (A = µs from the trigger to the decision, B = members
// decided over) and then a target event for each target that moved, and
// opens the epoch in the convergence tracker before the next decision
// gets in — so registry, ring, journal and tracker agree, in epoch order.
// The pushes run unlocked and may land out of order: a socket member and
// a *pool.Pool refuse a target older than the newest they were pushed; a
// member that ignores epochs may briefly run the older of two racing
// targets, until the next rebalance (each pushes to every member)
// corrects it. The journal's file I/O waits for the fan-out.
//
// start is when the triggering member event entered the coordinator,
// where the first of rebalanceStages begins; the completed span lands in
// coordinator_rebalance_latency_micros{stage=...}.
func (c *Coordinator) rebalanceNow(start time.Time) {
	snap := c.snapshots.Get().(*snapshot)
	pushes, pending := snap.pushes[:0], snap.pending[:0]
	c.mu.Lock()
	c.reg.Visit(func(m *core.Member[string]) { pushes = append(pushes, push{e: m.Handle.(*entry)}) })
	loadAware := c.loadAware
	c.mu.Unlock()
	snapDone := time.Now()
	c.met.rebalanceCount.Inc()
	for _, p := range pushes {
		if p.e.remote {
			continue // a socket member's count is its registration's: sampled then
		}
		// A store is a locked instruction and a cap rarely moves.
		if limit := int64(demandCap(p.e.m, loadAware)); p.e.cap.Load() != limit {
			p.e.cap.Store(limit)
		}
	}

	sampled := len(pushes)
	pushes = pushes[:0] // the membership may have changed
	c.mu.Lock()
	// Decide asks every member's cap once, in registration order, before
	// it moves a target: the same visit lists whom to push to.
	moves := c.reg.Decide(0, func(m *core.Member[string]) int {
		e := m.Handle.(*entry)
		pushes = append(pushes, push{e: e, target: m.Target})
		return int(e.cap.Load())
	})
	epoch, decided := uint64(c.reg.Decisions), time.Now()
	c.emitLocked(flight.Event{At: decided.UnixMicro(), Kind: flight.KindRebalance,
		A: decided.Sub(start).Microseconds(), B: int64(len(pushes)), Epoch: epoch})
	i := 0
	for _, mv := range moves {
		e := mv.Handle.(*entry)
		for pushes[i].e != e { // moves are in registration order too
			i++
		}
		pushes[i].target, pushes[i].moved = mv.Target, true
		c.targetsSum += int64(mv.Target - mv.Prev)
		c.emitLocked(flight.Event{At: decided.UnixMicro(), Kind: flight.KindTarget,
			App: mv.Key, A: int64(mv.Target), B: int64(mv.Prev), Epoch: epoch})
		pending = append(pending, pendingMember{name: mv.Key, remote: e.remote})
	}
	// The epoch must be open before any member can ack it.
	c.conv.Open(epoch, decided.UnixMicro(), pending)
	c.mu.Unlock()

	moved := 0 // how many of pending the fan-out has passed
	for _, p := range pushes {
		applied := true
		if p.e.epochM != nil {
			applied = p.e.epochM.SetTargetEpoch(p.target, epoch)
		} else {
			p.e.m.SetTarget(p.target)
		}
		if p.moved {
			pending[moved].applied = applied
			moved++
		}
	}
	end := time.Now()
	for i, d := range []time.Duration{snapDone.Sub(start), decided.Sub(snapDone), end.Sub(decided), end.Sub(start)} {
		c.met.observeStage(i, d)
	}
	for _, pm := range pending {
		if pm.applied { // a synchronous applier acks as soon as its push returned
			c.conv.Ack(pm.name, epoch, end.UnixMicro())
		}
	}
	c.journalFlush(false)

	// A pooled working set keeps no departed member or name alive.
	clear(pushes[:max(sampled, len(pushes))])
	clear(pending)
	snap.pushes, snap.pending = pushes, pending
	c.snapshots.Put(snap)
}

// AckApplied records that the named member has applied the target it
// was pushed in the given epoch (and, transitively, every older one).
// The server calls it when a poll carries the client's applied-epoch
// acknowledgement; at is the acknowledging request's arrival in Unix
// microseconds.
func (c *Coordinator) AckApplied(name string, epoch uint64, at int64) {
	c.conv.Ack(name, epoch, at)
}

// NotePoll counted a poll against its name's shard when there were
// shards. coordinator_rpcs_total{op="poll"} counts polls; what is left is
// the name benchmark/ compiles against, for ROADMAP item 1(d) to delete.
func (c *Coordinator) NotePoll(name string) {}

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

// demandCap computes the cap on a member's target. It calls into member
// code and must therefore never run under a coordinator lock.
func demandCap(m Member, loadAware bool) int {
	limit := m.Workers()
	if !loadAware {
		return limit
	}
	if l, ok := m.(Loader); ok {
		// Keep one worker warm for arrival latency.
		limit = min(limit, max(l.Backlog()+l.Executing(), 1))
	}
	return limit
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
