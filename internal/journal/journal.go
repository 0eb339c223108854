// Package journal is the coordinator's durability layer: an append-only,
// CRC32C-framed, length-prefixed record log of every membership and
// target transition (register, unregister, lease expiry, target change,
// epoch rebalance, load/capacity changes), with periodic snapshots of
// the full registry, fsync batching, and segment rotation. On startup
// the daemon runs Recover — an fsck that truncates torn tails, verifies
// frame CRCs, and validates snapshot/journal sequence continuity — and
// replays the surviving prefix to reconstruct its registry without
// waiting for client re-registration.
//
// What a record does to a registry is defined once, by Fold, over
// core.Registry — the state machine the simulated server runs on.
// Recovery believes every record, target and rebalance records
// included. The same format doubles as a record/replay harness: a
// captured journal is a complete input trace of the live coordinator's
// decisions, and ctrl.DiffJournal folds the membership and input records
// the same way but re-derives each rebalance with Registry.Decide, to
// diff the daemon's journaled target decisions against the state
// machine's (cmd/procctl-replay). State and Member are only the form a
// snapshot takes on disk.
//
// On-disk layout (all files little-endian):
//
//	wal-<firstseq>.log   8-byte magic "procwal1", then frames
//	snap-<lastseq>.snap  8-byte magic "procsnp1", then ONE frame (a State)
//
// A frame is: uint32 payload length, uint32 CRC32C (Castagnoli) of the
// payload, payload bytes. Record payloads are compact JSON with a fixed
// field order, so the log is greppable. flight.AppendJSON writes them —
// the encoder the flight dumps use too — byte-identical to encoding/json.
//
// Determinism contract: the package never reads a clock — callers stamp
// every record, and fsync latency is timed only through the injected
// Options.NowMicros — and never iterates a map or spawns a goroutine,
// so journal replay (internal/ctrl replays journal records) is a pure
// function of the record stream.
package journal

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"

	"procctl/internal/core"
	"procctl/internal/flight"
)

// Record is one journaled transition: a flight event promoted to
// durable history, the same struct. Seq is assigned by the Writer in
// append order (starting at 1) and is the recovery continuity check; At
// is microseconds on the recording layer's clock; A and B carry the
// kind's detail (see the flight kind constants).
//
// Epoch is the v2 field: the rebalance decision a target/rebalance
// record belongs to. It is omitted when zero, so v2 writers produce
// byte-identical payloads to v1 for epoch-less records and v1 decoders
// (json.Unmarshal with the old struct) still read v2 journals — the
// unknown field is simply dropped, matching Fold's unknown-kind rule.
type Record = flight.Event

// The record kinds are the flight kinds that change the registry.
// Durable is the promotion rule.
const (
	KindRegister    = flight.KindRegister
	KindUnregister  = flight.KindUnregister
	KindLeaseExpiry = flight.KindLeaseExpiry
	KindTarget      = flight.KindTarget
	KindRebalance   = flight.KindRebalance
	KindSetLoad     = flight.KindSetLoad
	KindSetCapacity = flight.KindSetCapacity
	KindRestart     = flight.KindRestart
)

// Durable reports whether a flight event of this kind is a registry
// transition worth persisting. The others — redial, reconnect, snapshot,
// apply, settle, converge — describe the observation layer
// and are not journaled.
func Durable(kind string) bool {
	switch kind {
	case KindRegister, KindUnregister, KindLeaseExpiry, KindTarget,
		KindRebalance, KindSetLoad, KindSetCapacity, KindRestart:
		return true
	}
	return false
}

// Fold applies one record to a registry keyed by member name, taking
// the record at its word: a target record sets the member's target, a
// rebalance record counts one decision. It is the only place a record
// kind is mapped to a registry transition. Recovery folds every record
// through it; the replay audit (ctrl.DiffJournal) folds the membership
// and input records through it and re-derives the other two with
// Registry.Decide instead of believing them. Unknown kinds change
// nothing, so new record kinds stay readable by old fsck code.
func Fold(reg *core.Registry[string], r Record) {
	switch r.Kind {
	case KindRegister:
		reg.Register(r.App, int(r.A), int(r.B), r.At)
	case KindUnregister, KindLeaseExpiry:
		reg.Remove(r.App)
	case KindTarget:
		reg.SetTarget(r.App, int(r.A))
	case KindRebalance:
		reg.Decisions++
	case KindSetLoad:
		reg.External = int(r.A)
	case KindSetCapacity:
		reg.Capacity = int(r.A)
	case KindRestart:
		// The restarted daemon re-seated the surviving members in name
		// order; the record carries no other state.
		reg.Reseat()
	}
}

// Member is one application's entry in a snapshot.
type Member struct {
	Name   string `json:"name"`
	Procs  int    `json:"procs"`
	Weight int    `json:"weight"`
	Target int    `json:"target"`
	// LastSeen is the At stamp of the member's most recent registration
	// activity, for post-mortem lease reasoning. A restarted daemon
	// grants recovered members a fresh lease rather than trusting this
	// across the downtime.
	LastSeen int64 `json:"last_seen,omitempty"`
}

// State is the registry at a point in the record stream in the form a
// snapshot stores it: what WriteSnapshot takes and Recover returns. It
// is a serialization, not a state machine — Registry loads one into a
// core.Registry, Snapshot writes one back out. Members are sorted by
// name so equal states marshal to equal bytes.
type State struct {
	Capacity   int      `json:"capacity,omitempty"`
	External   int      `json:"external,omitempty"`
	Rebalances int64    `json:"rebalances,omitempty"`
	Members    []Member `json:"members,omitempty"`
	// LastSeq is the sequence number of the last record folded into
	// this state; replay continues at LastSeq+1.
	LastSeq uint64 `json:"last_seq"`
	// At is the stamp of the last folded record (or the snapshot time).
	At int64 `json:"at,omitempty"`
}

// Registry loads the state into a registry, members seated in the
// state's (name) order — the order a restarted daemon seats them in —
// each holding its snapshotted target.
func (s *State) Registry() *core.Registry[string] {
	reg := core.NewRegistry[string](s.Capacity)
	reg.External, reg.Decisions = s.External, s.Rebalances
	for _, m := range s.Members {
		reg.Register(m.Name, m.Procs, m.Weight, m.LastSeen)
		reg.SetTarget(m.Name, m.Target)
	}
	return reg
}

// Snapshot writes a registry out as a State, members sorted by name,
// stamped with the last record folded into it.
func Snapshot(reg *core.Registry[string], lastSeq uint64, at int64) State {
	st := State{Capacity: reg.Capacity, External: reg.External, Rebalances: reg.Decisions, LastSeq: lastSeq, At: at}
	members := reg.Members()
	slices.SortFunc(members, func(a, b core.Member[string]) int { return cmp.Compare(a.Key, b.Key) })
	for _, m := range members {
		st.Members = append(st.Members, Member{Name: m.Key, Procs: m.Procs, Weight: m.Weight, Target: m.Target, LastSeen: m.LastSeen})
	}
	return st
}

// Frame format constants.
const (
	segMagic  = "procwal1" // segment files: frames of Records
	snapMagic = "procsnp1" // snapshot files: one frame of State
	magicLen  = 8
	frameHdr  = 8 // uint32 payload length + uint32 CRC32C

	// MaxFrame bounds a single payload; larger length prefixes are
	// treated as corruption rather than allocated.
	MaxFrame = 8 << 20
)

// castagnoli is the CRC32C polynomial table (the same checksum family
// iSCSI and ext4 journals use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame decode errors. ErrShortFrame means the buffer ends mid-frame —
// the torn-tail case recovery truncates at; the others mean bytes were
// damaged in place.
var (
	ErrShortFrame  = errors.New("journal: truncated frame")
	ErrFrameTooBig = errors.New("journal: frame length exceeds MaxFrame")
	ErrCRC         = errors.New("journal: frame CRC mismatch")
)

// appendFrame appends one length-prefixed CRC32C frame carrying payload.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// DecodeFrame parses the first frame in b, returning its payload and
// the total bytes consumed. The payload aliases b; callers that keep it
// must copy. An error reports why the bytes are not a valid frame.
func DecodeFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < frameHdr {
		return nil, 0, ErrShortFrame
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	if size > MaxFrame {
		return nil, 0, ErrFrameTooBig
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	end := frameHdr + int(size)
	if len(b) < end {
		return nil, 0, ErrShortFrame
	}
	payload = b[frameHdr:end]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, 0, ErrCRC
	}
	return payload, end, nil
}

// DecodeRecord parses one record payload. It rejects payloads that are
// not a JSON object, carry no kind, or carry a zero sequence number —
// the invariants every Writer-produced record holds.
func DecodeRecord(payload []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, fmt.Errorf("journal: bad record: %w", err)
	}
	if r.Kind == "" {
		return Record{}, errors.New("journal: record has no kind")
	}
	if r.Seq == 0 {
		return Record{}, errors.New("journal: record has no sequence number")
	}
	return r, nil
}

// EncodeRecord returns the record's canonical payload bytes (no frame):
// the event's JSON, as flight.AppendJSON writes it.
func EncodeRecord(r Record) []byte {
	return flight.AppendJSON(nil, &r)
}

// segmentName and snapshotName fix the on-disk naming: the decimal
// sequence number is zero-padded so lexical order is numeric order.
func segmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%020d.log", firstSeq) }
func snapshotName(lastSeq uint64) string { return fmt.Sprintf("snap-%020d.snap", lastSeq) }
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+20+len(suffix) || name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
