package ctrl

import (
	"fmt"
	"slices"

	"procctl/internal/core"
	"procctl/internal/journal"
)

// Mismatch is one divergence between the journal's recorded decisions
// and the replay.
type Mismatch struct {
	Seq  uint64 // journal record the divergence was detected at (0 = end of log)
	What string
}

// DiffResult summarizes a record/replay comparison.
type DiffResult struct {
	Records    int // journal records fed through the replay
	Scans      int // rebalance epochs replayed
	Decisions  int // journaled target decisions checked
	Mismatches []Mismatch
}

// OK reports whether the live daemon and the replay decided
// identically.
func (d *DiffResult) OK() bool { return len(d.Mismatches) == 0 }

// epochQueue is the replay's pending decisions for one replayed
// rebalance epoch, awaiting the journal's matching target records.
type epochQueue struct {
	epoch     uint64
	decisions []core.Move[string]
}

// DiffJournal replays a captured record stream and diffs every target
// decision the live daemon journaled against what the registry state
// machine (core.Registry, the one the simulated server runs on) decides
// from the same inputs. Membership, load, capacity and restart records
// are folded in through journal.Fold exactly as recovery folds them
// (a re-register moves the member to the end of the tie-break order, a
// restart re-seats the members in name order); a rebalance record is not
// believed but re-derived with Registry.Decide, and the target changes
// that produces are held against the target records the daemon wrote.
// Both sides run the same policy over the same inputs in the same order,
// so any diff is a real divergence: a decision the daemon's shell —
// batching, sharding, locking — made that the state machine does not
// explain. Leases play no part: expiries were the daemon's to decide and
// arrive as records.
//
// base and recs come from journal.ReadAll; capacity is the divisible
// total until the first setcapacity record (a journaled daemon always
// writes one at boot) unless base carries one.
//
// Decisions are matched by epoch: each rebalance record opens a
// decision queue under its epoch ID, and every target record is held
// against its own epoch's queue first — so a target journaled under an
// epoch whose replay decided differently is a mismatch even when a
// FIFO pairing would have lined up. When the record's own queue is
// exhausted (or absent), it falls back FIFO to the oldest queue with
// pending decisions: concurrent notifies journal their record groups
// in snapshot order, not journal order, so a decision can land one
// epoch away from where the replay computed it (a register record, for
// example, may be appended after a scan whose snapshot already saw the
// member). The overlap window is one epoch — see flush — so anything
// skewed further is still a divergence. Epoch-less v1 records use
// synthetic epochs (the running rebalance count, which is exactly what
// a v2 daemon would have stamped) and always take the FIFO path, so
// mixed-version journals — a v1 prefix continued by an upgraded daemon
// — still diff cleanly.
func DiffJournal(base journal.State, recs []journal.Record, capacity int) *DiffResult {
	reg := base.Registry()
	if base.Capacity <= 0 {
		reg.Capacity = max(capacity, 1)
	}
	// departed remembers the last target a member held when an
	// unregister or lease-expiry record dropped it: the anchor for
	// explaining a phantom re-push journaled by a departure that raced
	// the daemon's own fan-out (below).
	departed := make(map[string]int)
	standingTarget := func(app string) (int, bool) {
		if m, ok := reg.Get(app); ok && m.HasTarget {
			return m.Target, true
		}
		t, ok := departed[app]
		return t, ok
	}
	res := &DiffResult{}
	var queues []epochQueue
	lastEpoch := uint64(base.Rebalances)
	flush := func(keep int, seq uint64) {
		for len(queues) > keep {
			q := queues[0]
			queues = queues[1:]
			for _, d := range q.decisions {
				res.Mismatches = append(res.Mismatches, Mismatch{Seq: seq,
					What: fmt.Sprintf("replay decided %s -> %d (was %d) in epoch %d but the journal records no matching target", d.Key, d.Target, d.Prev, q.epoch)})
			}
		}
	}
	for _, rec := range recs {
		res.Records++
		switch rec.Kind {
		case journal.KindTarget:
			res.Decisions++
			qi := -1
			if rec.Epoch != 0 {
				for i := range queues {
					if queues[i].epoch == rec.Epoch && len(queues[i].decisions) > 0 {
						qi = i
						break
					}
				}
			}
			if qi < 0 {
				// Own-epoch queue exhausted or absent (v1 records always
				// land here): FIFO against the oldest pending queue.
				for i := range queues {
					if len(queues[i].decisions) > 0 {
						qi = i
						break
					}
				}
			}
			if qi < 0 {
				// No pending decision anywhere. One journal shape still
				// explains that: a target record with no pushed-target
				// memory (was-0) whose value is the target the replay
				// already attributes to the app. A departure racing the
				// fan-out wipes the daemon's memory of the member's last
				// push mid-rebalance, so the daemon re-delivers — and
				// journals — the member's standing target as if it were
				// new, while the serial replay of the same records
				// correctly sees no change. The value must still match;
				// a remembered prev or a different target is a real
				// divergence.
				if rec.B == 0 {
					if cur, ok := standingTarget(rec.App); ok && int64(cur) == rec.A {
						continue
					}
				}
				res.Mismatches = append(res.Mismatches, Mismatch{Seq: rec.Seq,
					What: fmt.Sprintf("journal says %s -> %d but replay made no further decision in epoch %d", rec.App, rec.A, rec.Epoch)})
				continue
			}
			d := queues[qi].decisions[0]
			queues[qi].decisions = queues[qi].decisions[1:]
			// The previous-target field participates only when both sides
			// remember one. Zero means "no pushed-target memory", and a
			// departure racing the fan-out legally empties it on one side
			// only: the daemon's unregister deletes the memory between a
			// concurrent rebalance's snapshot and its push, journaling
			// was-0 where the serial replay of the same records still
			// remembers the old target (or vice versa, when the target
			// record lands after the unregister it raced). The decision —
			// this app, this target, this epoch — is what replay must
			// explain; a remembered-vs-remembered disagreement is still a
			// divergence.
			if d.Key != rec.App || int64(d.Target) != rec.A ||
				(rec.B != 0 && d.Prev != 0 && int64(d.Prev) != rec.B) {
				res.Mismatches = append(res.Mismatches, Mismatch{Seq: rec.Seq,
					What: fmt.Sprintf("journal says %s -> %d (was %d); replay decided %s -> %d (was %d)",
						rec.App, rec.A, rec.B, d.Key, d.Target, d.Prev)})
			}
		case journal.KindRebalance:
			// One epoch of overlap is legal — two concurrent notifies may
			// interleave their records — but anything older is a decision
			// the daemon never delivered.
			flush(1, rec.Seq)
			res.Scans++
			epoch := rec.Epoch
			if epoch == 0 {
				epoch = lastEpoch + 1 // v1 record: the count a v2 daemon would have stamped
			}
			lastEpoch = epoch
			queues = append(queues, epochQueue{epoch: epoch, decisions: slices.Clone(reg.Decide(0, nil))})
		default:
			if rec.Kind == journal.KindUnregister || rec.Kind == journal.KindLeaseExpiry {
				if m, ok := reg.Get(rec.App); ok && m.HasTarget {
					departed[rec.App] = m.Target
				}
			}
			journal.Fold(reg, rec)
		}
	}
	flush(0, 0)
	return res
}
