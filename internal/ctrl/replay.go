package ctrl

import (
	"fmt"

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

// DiffJournal replays a captured record stream and diffs every target
// decision the live daemon journaled against what the registry state
// machine (core.Registry, the one the simulated server runs on) decides
// from the same inputs. Membership, load, capacity and restart records
// are folded in through journal.Fold exactly as recovery folds them
// (a re-register moves the member to the end of the tie-break order, a
// restart re-seats the members in name order); a rebalance record is not
// believed but re-derived with Registry.Decide, and the target records
// that follow it must be the moves that produces, one for one and in
// order: key, target, previous target and — when the record is stamped —
// epoch. The daemon writes its journal in the order its registry changed
// (a rebalance record at its decision, then that decision's targets), and
// both sides run the same policy over the same inputs in that order, so
// any diff is a real divergence: a decision the daemon's shell —
// batching, locking — made that the state machine does not explain.
// Leases play no part: expiries were the daemon's to decide and arrive
// as records. Matching is by position, so the epoch-less records of a v1
// daemon — and a v1 prefix continued by an upgraded one, which stamps the
// running rebalance count the replay keeps — diff the same way. Journals
// of daemons older than the ordering guarantee still recover (Fold is
// unchanged) but may report the interleavings they were written with.
//
// base and recs come from journal.ReadAll; capacity is the divisible
// total until the first setcapacity record (a journaled daemon always
// writes one at boot) unless base carries one.
func DiffJournal(base journal.State, recs []journal.Record, capacity int) *DiffResult {
	reg := base.Registry()
	if base.Capacity <= 0 {
		reg.Capacity = max(capacity, 1)
	}
	res := &DiffResult{}
	mismatch := func(seq uint64, format string, args ...any) {
		res.Mismatches = append(res.Mismatches, Mismatch{Seq: seq, What: fmt.Sprintf(format, args...)})
	}
	var want []core.Move[string] // the last rebalance's moves the journal has yet to record
	unrecorded := func(seq uint64) {
		for _, d := range want {
			mismatch(seq, "replay decided %s -> %d (was %d) in epoch %d but the journal records no matching target", d.Key, d.Target, d.Prev, reg.Decisions)
		}
		want = nil
	}
	for _, rec := range recs {
		res.Records++
		if rec.Kind != journal.KindTarget {
			unrecorded(rec.Seq)
		}
		switch rec.Kind {
		case journal.KindTarget:
			res.Decisions++
			if len(want) == 0 {
				mismatch(rec.Seq, "journal says %s -> %d but replay made no further decision in epoch %d", rec.App, rec.A, reg.Decisions)
				continue
			}
			d := want[0]
			want = want[1:]
			if d.Key != rec.App || int64(d.Target) != rec.A || int64(d.Prev) != rec.B ||
				(rec.Epoch != 0 && rec.Epoch != uint64(reg.Decisions)) {
				mismatch(rec.Seq, "journal says %s -> %d (was %d) in epoch %d; replay decided %s -> %d (was %d) in epoch %d",
					rec.App, rec.A, rec.B, rec.Epoch, d.Key, d.Target, d.Prev, reg.Decisions)
			}
		case journal.KindRebalance:
			res.Scans++
			want = reg.Decide(0, nil) // consumed before the registry is touched again
			if rec.Epoch != 0 && rec.Epoch != uint64(reg.Decisions) {
				mismatch(rec.Seq, "journal's rebalance is epoch %d, replay's %d", rec.Epoch, reg.Decisions)
			}
		default:
			journal.Fold(reg, rec)
		}
	}
	unrecorded(0)
	return res
}
