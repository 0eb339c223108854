package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"procctl/internal/core"
)

// RecoverResult is what fsck found: the reconstructed registry, where
// appending must resume, and exactly what damage was (or must be)
// discarded to get there.
type RecoverResult struct {
	// State is the registry reconstructed from the newest readable
	// snapshot plus every contiguous record after it.
	State State
	// NextSeq is the sequence number the next appended record must
	// carry: State.LastSeq+1, or 1 for an empty/absent journal.
	NextSeq uint64
	// SnapshotSeq is the LastSeq of the snapshot recovery started from
	// (0 when replay ran from genesis).
	SnapshotSeq uint64
	// Replayed counts records folded in on top of the snapshot.
	Replayed int
	// TruncatedBytes totals the torn/corrupt bytes fsck decided to cut,
	// across all damaged files.
	TruncatedBytes int64
	// Notes explains, one line per file, every repair decision.
	Notes []string

	// truncations lists (file, byte offset to truncate to) repairs, in
	// segment order; removals lists files to delete outright (segments
	// past a break in sequence continuity, undecodable snapshots).
	// Repair applies both.
	truncations []truncEntry
	removals    []string
}

// truncEntry is one pending truncation: the segment file and the byte
// offset its valid prefix ends at.
type truncEntry struct {
	name string
	off  int64
}

// Recover fscks and replays the journal in dir without modifying it.
// The rules, applied in order:
//
//  1. Snapshots are tried newest-first; the first one that decodes
//     (magic, frame CRC, JSON, name agrees with embedded LastSeq) is
//     the base state. Undecodable snapshots are marked for removal.
//  2. Segments are scanned in sequence order. Within a segment, frames
//     are decoded until the first torn or corrupt frame; everything
//     after that point is marked for truncation, and all later
//     segments for removal (a break ends the valid prefix — records
//     beyond it are unordered survivors, not history).
//  3. Record sequence numbers must increase contiguously. Records at
//     or below the base snapshot's LastSeq are skipped (the snapshot
//     already folded them); the first gap or regression ends the valid
//     prefix exactly like corruption does.
//
// A missing or empty directory is a valid empty journal. Recover never
// panics on arbitrary bytes; see FuzzFsck.
func Recover(dir string) (*RecoverResult, error) {
	res := &RecoverResult{NextSeq: 1}
	snaps, segs, err := listDir(dir)
	if err != nil {
		return nil, err
	}

	// Rule 1: newest decodable snapshot wins.
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := readSnapshot(filepath.Join(dir, snaps[i].name))
		if err != nil {
			res.removals = append(res.removals, snaps[i].name)
			res.note("%s: unreadable snapshot (%v), dropping", snaps[i].name, err)
			continue
		}
		if st.LastSeq != snaps[i].seq {
			res.removals = append(res.removals, snaps[i].name)
			res.note("%s: snapshot claims last_seq %d, dropping", snaps[i].name, st.LastSeq)
			continue
		}
		res.State = *st
		res.SnapshotSeq = st.LastSeq
		res.NextSeq = st.LastSeq + 1
		break
	}

	// Rules 2+3: replay segments in order, stopping at the first break.
	reg := res.State.Registry()
	broken := false
	for _, seg := range segs {
		path := filepath.Join(dir, seg.name)
		if broken {
			res.removals = append(res.removals, seg.name)
			if fi, err := os.Stat(path); err == nil {
				res.TruncatedBytes += fi.Size()
			}
			res.note("%s: beyond earlier break, dropping", seg.name)
			continue
		}
		cut, reason := res.scanSegment(path, reg)
		if cut >= 0 {
			res.truncations = append(res.truncations, truncEntry{seg.name, cut})
			if fi, err := os.Stat(path); err == nil {
				res.TruncatedBytes += fi.Size() - cut
			}
			res.note("%s: %s, truncating to %d bytes", seg.name, reason, cut)
			broken = true
		}
	}
	res.State = Snapshot(reg, res.State.LastSeq, res.State.At)
	return res, nil
}

// scanSegment folds one segment's valid prefix into reg, and its last
// record's stamps into res.State. It returns the byte offset the file
// must be truncated to and why, or (-1, "") if the whole segment is
// clean.
func (res *RecoverResult) scanSegment(path string, reg *core.Registry[string]) (cut int64, reason string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Sprintf("unreadable (%v)", err)
	}
	return walkSegment(data, &res.NextSeq, func(rec Record) {
		Fold(reg, rec)
		res.State.LastSeq, res.State.At = rec.Seq, rec.At
		res.Replayed++
	})
}

// walkSegment is fsck rules 2 and 3 over one segment's bytes: it calls
// fn for each record that continues the sequence at *next, advancing
// it, skips records below *next (already folded by the snapshot, or
// duplicates), and stops at the first torn, corrupt or undecodable frame
// or sequence gap. It returns the offset the valid prefix ends at and
// why, or (-1, "") for a clean segment. A segment too short or wrong in
// magic ends at zero (equivalent to deletion of its content).
func walkSegment(data []byte, next *uint64, fn func(Record)) (cut int64, reason string) {
	if len(data) < magicLen || string(data[:magicLen]) != segMagic {
		return 0, "bad segment magic"
	}
	for off := magicLen; off < len(data); {
		payload, n, err := DecodeFrame(data[off:])
		if err != nil {
			return int64(off), "torn or corrupt frame (" + err.Error() + ")"
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return int64(off), "undecodable record"
		}
		if rec.Seq >= *next {
			if rec.Seq != *next {
				return int64(off), fmt.Sprintf("sequence gap (want %d, found %d)", *next, rec.Seq)
			}
			fn(rec)
			*next = rec.Seq + 1
		}
		off += n
	}
	return -1, ""
}

func (res *RecoverResult) note(format string, args ...any) {
	res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
}

// Dirty reports whether Repair would change anything on disk.
func (res *RecoverResult) Dirty() bool {
	return len(res.truncations) > 0 || len(res.removals) > 0
}

// Repair applies the result's physical repairs: truncates torn tails
// and deletes files beyond the break. Stale damage left in place would
// shadow fresh records on the NEXT recovery, so Open always repairs
// before appending. Repair is idempotent.
func Repair(dir string, res *RecoverResult) error {
	for _, t := range res.truncations {
		path := filepath.Join(dir, t.name)
		if t.off <= int64(magicLen) {
			// Nothing decodable survived; remove rather than keep a stub.
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("journal: repair: %w", err)
			}
			continue
		}
		if err := os.Truncate(path, t.off); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: repair: %w", err)
		}
	}
	for _, name := range res.removals {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: repair: %w", err)
		}
	}
	return nil
}

// readSnapshot decodes one snapshot file.
func readSnapshot(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < magicLen || string(data[:magicLen]) != snapMagic {
		return nil, fmt.Errorf("bad snapshot magic")
	}
	payload, _, err := DecodeFrame(data[magicLen:])
	if err != nil {
		return nil, err
	}
	var st State
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, err
	}
	// Name order is the order a restarted daemon seats the members in,
	// so it is the order replay must seed them in. Every writer stores
	// them sorted; a snapshot from anywhere else is put in that order here.
	sort.SliceStable(st.Members, func(i, j int) bool { return st.Members[i].Name < st.Members[j].Name })
	return &st, nil
}

// ReadAll returns every record reachable from the OLDEST retained
// snapshot's position forward — the longest contiguous record stream
// the directory still holds — plus the base state those records apply
// on top of (empty when the stream reaches back to genesis). This is
// the record/replay harness's input: the audit seeds a registry from
// the base and feeds it the records in order.
//
// ReadAll shares Recover's fsck rules but anchors low instead of high:
// where Recover wants the cheapest path to the final state, replay
// wants the longest decision history.
func ReadAll(dir string) (base State, recs []Record, err error) {
	snaps, segs, err := listDir(dir)
	if err != nil {
		return State{}, nil, err
	}

	// Earliest segment decides how far back the record stream reaches.
	var firstSeq uint64 = 1
	if len(segs) > 0 {
		if seq, ok := parseSeqName(segs[0].name, "wal-", ".log"); ok {
			firstSeq = seq
		}
	}

	// Oldest decodable snapshot whose LastSeq+1 >= firstSeq anchors the
	// base; with none, replay runs from genesis (only sound if the
	// first segment actually starts at seq 1).
	nextSeq := uint64(1)
	for _, sn := range snaps {
		st, err := readSnapshot(filepath.Join(dir, sn.name))
		if err != nil || st.LastSeq != sn.seq {
			continue
		}
		if st.LastSeq+1 >= firstSeq {
			base = *st
			nextSeq = st.LastSeq + 1
			break
		}
	}
	if len(segs) > 0 && base.LastSeq == 0 && firstSeq > 1 {
		return State{}, nil, fmt.Errorf("journal: no snapshot covers records before seq %d", firstSeq)
	}

	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			return State{}, nil, fmt.Errorf("journal: %w", err)
		}
		if cut, _ := walkSegment(data, &nextSeq, func(rec Record) { recs = append(recs, rec) }); cut >= 0 {
			break // the stream ends at the first break
		}
	}
	return base, recs, nil
}
