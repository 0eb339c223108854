// Package flight is an always-on flight recorder: a fixed-capacity ring
// buffer of structured control-plane events (registrations, lease
// expiries, target changes, redials, rebalance spans) that costs one
// mutexed struct copy per event and allocates nothing once the ring has
// reached its capacity. Until then the storage doubles with what is
// recorded: a daemon's ring is whole within seconds (nine allocations in
// its lifetime), and a simulated server that ends its run holding nine
// events pays for sixteen, not for the 295 KB of a full ring.
// Both control servers keep one — the coordinator daemon stamps events
// with wall-clock Unix microseconds, the simulated ctrl server with
// virtual sim.Time microseconds — so a post-mortem can always ask "what
// were the last few thousand decisions" without any tracing having been
// enabled in advance.
//
// Determinism contract: the package never reads a clock; the caller
// supplies every timestamp. Sequence numbers are assigned in append
// order, so two same-seed simulated runs produce identical event logs
// (asserted by internal/ctrl's TestFlightEventsDeterministic).
package flight

import "sync"

// Event kinds shared by the recording layers: the one table of what a
// kind's A and B mean, for the flight ring and for the journal, whose
// records are these events (journal.Record is an alias of Event, and
// journal.Durable picks out the kinds that are registry transitions).
// Kind is an open string — a layer may record kinds of its own — but
// dumps, replay and tests key on these.
const (
	KindRegister    = "register"     // App registered; A = process count, B = fair-share weight (0 from the sim server: unweighted)
	KindUnregister  = "unregister"   // App withdrew; A = its last pushed target (0 if none)
	KindLeaseExpiry = "lease_expiry" // App presumed dead, its lease lapsed; A = members expired with it
	KindTarget      = "target"       // App's target changed; A = new target, B = previous (0 if none)
	KindRebalance   = "rebalance"    // one epoch decided, its targets follow; A = µs from trigger to decision, B = members decided over
	KindRedial      = "redial"       // client lost the daemon and is re-dialing; A = attempt count
	KindReconnect   = "reconnect"    // client re-dialed and re-registered; A = applied target
	KindScan        = "scan"         // sim ctrl recompute; A = scan number, B = targets changed
	KindSetLoad     = "setload"      // external load reported; A = new load
	KindSetCapacity = "setcapacity"  // managed capacity changed; A = new capacity
	KindRestart     = "restart"      // daemon recovered its journal; A = members restored, B = bytes fsck truncated
	KindSnapshot    = "snapshot"     // registry snapshot written; A = last journaled seq
	KindApply       = "apply"        // client driver applied a pushed target; A = new target, B = previous
	KindSettle      = "settle"       // pool's runnable count reached the applied target; A = target
	KindConverge    = "converge"     // epoch closed; App = straggler, A = close latency µs, B = members tracked
)

// Event is one recorded occurrence. At is microseconds on the
// recording layer's clock (Unix for the daemon, virtual for the sim);
// Seq is assigned by the recorder in append order and survives ring
// wraparound, so gaps reveal how much history was overwritten (in the
// journal, whose records are Events, Seq is the Writer's instead: dense
// from 1, the recovery continuity check). A and B carry kind-specific
// detail (see the Kind constants). Epoch, when
// non-zero, names the rebalance decision the event belongs to — the
// coordinator stamps it on target/rebalance/converge events, clients
// echo it on apply/settle — so a post-mortem can follow one decision
// across process boundaries.
type Event struct {
	Seq   uint64 `json:"seq"`
	At    int64  `json:"at"`
	Kind  string `json:"kind"`
	App   string `json:"app,omitempty"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// Recorder is a fixed-capacity ring of Events, safe for concurrent use.
// History beyond the capacity is overwritten oldest-first; Append
// allocates only while the ring is growing towards its capacity.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event // event i is buf[i%size]; len(buf) = min(next, size)
	size int     // the capacity, fixed at construction
	next uint64  // total events ever appended
}

// DefaultSize is the ring capacity the control servers use: enough for
// several minutes of a busy fleet's membership churn, at 72 bytes an
// event. It is a bound, not a cost: the storage follows the events, and
// a recorder allocates nothing once the ring has reached its capacity.
const DefaultSize = 4096

// firstAlloc is the ring's first array: a simulated run's events fit.
const firstAlloc = 16

// New returns a recorder holding the last size events (minimum 1).
func New(size int) *Recorder {
	if size < 1 {
		size = 1
	}
	return &Recorder{size: size}
}

// Append records ev, assigning its sequence number. The event is copied
// into the ring in one short critical section; the only allocations are
// the doublings on the way to the capacity.
func (r *Recorder) Append(ev Event) {
	r.mu.Lock()
	ev.Seq = r.next
	if len(r.buf) == r.size {
		r.buf[int(r.next%uint64(r.size))] = ev
	} else {
		if len(r.buf) == cap(r.buf) {
			r.buf = append(make([]Event, 0, min(max(firstAlloc, 2*len(r.buf)), r.size)), r.buf...)
		}
		r.buf = append(r.buf, ev)
	}
	r.next++
	r.mu.Unlock()
}

// Total returns how many events were ever appended (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns how many events have been overwritten by wraparound.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - uint64(len(r.buf))
}

// Cap returns the ring capacity. (It is fixed at construction, but
// taking the lock keeps the access pattern uniform for the
// lock-discipline analyzer.)
func (r *Recorder) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Snapshot returns up to limit of the most recent events, oldest first
// (limit <= 0 means everything retained). This is the dump path: it
// allocates the returned slice.
func (r *Recorder) Snapshot(limit int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	size := uint64(r.size)
	have := uint64(len(r.buf)) // min(n, size): everything retained
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
