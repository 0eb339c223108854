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
// The same format doubles as a record/replay harness: a captured journal
// is a complete input trace of the live coordinator's decisions, and
// internal/ctrl can replay it through the deterministic simulated server
// to diff the two target-decision sequences (cmd/procctl-replay).
//
// On-disk layout (all files little-endian):
//
//	wal-<firstseq>.log   8-byte magic "procwal1", then frames
//	snap-<lastseq>.snap  8-byte magic "procsnp1", then ONE frame (a State)
//
// A frame is: uint32 payload length, uint32 CRC32C (Castagnoli) of the
// payload, payload bytes. Record payloads are compact JSON with a fixed
// field order, so the log is greppable and the hand-rolled encoder stays
// byte-identical to encoding/json (pinned by test).
//
// Determinism contract: the package never reads a clock — callers stamp
// every record, and fsync latency is timed only through the injected
// Options.NowMicros — and never iterates a map or spawns a goroutine,
// so it is safe inside procctl-vet's simulation scope (internal/ctrl
// replays journal records).
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
)

// Record kinds. They mirror the flight-recorder event kinds for the
// transitions that are durable state changes (see FromFlight); kinds the
// flight recorder knows but the journal does not record (scan, redial,
// reconnect, restore) are observability-only.
const (
	KindRegister    = "register"     // App joined; A = process count, B = weight
	KindUnregister  = "unregister"   // App withdrew; A = its last pushed target
	KindLeaseExpiry = "lease_expiry" // App presumed dead; A = members expired with it
	KindTarget      = "target"       // App's target changed; A = new, B = previous
	KindRebalance   = "rebalance"    // one recompute epoch; A = span µs, B = members notified
	KindSetLoad     = "setload"      // external load reported; A = new load
	KindSetCapacity = "setcapacity"  // managed capacity changed; A = new capacity
	KindRestart     = "restart"      // daemon recovered this journal; A = members restored, B = bytes truncated by fsck
)

// Record is one journaled transition. The field set deliberately matches
// flight.Event: Seq is assigned by the Writer in append order (starting
// at 1) and is the recovery continuity check; At is microseconds on the
// recording layer's clock; A and B carry kind-specific detail.
//
// Epoch is the v2 field: the rebalance decision a target/rebalance
// record belongs to. It is omitted when zero, so v2 writers produce
// byte-identical payloads to v1 for epoch-less records and v1 decoders
// (json.Unmarshal with the old struct) still read v2 journals — the
// unknown field is simply dropped, matching Apply's unknown-kind rule.
type Record struct {
	Seq   uint64 `json:"seq"`
	At    int64  `json:"at"`
	Kind  string `json:"kind"`
	App   string `json:"app,omitempty"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// Member is one application's durable registry entry.
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

// State is the full coordinator registry at a point in the record
// stream: what a snapshot stores and what recovery reconstructs.
// Members are kept sorted by name so equal states marshal to equal
// bytes.
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

// find returns the index of the named member, or -1: a binary search
// of the sorted Members, because replay calls it for every register,
// unregister and target record.
func (s *State) find(name string) int {
	i := sort.Search(len(s.Members), func(i int) bool { return s.Members[i].Name >= name })
	if i < len(s.Members) && s.Members[i].Name == name {
		return i
	}
	return -1
}

// upsert inserts or replaces a member, keeping Members sorted by name.
func (s *State) upsert(m Member) {
	if i := s.find(m.Name); i >= 0 {
		s.Members[i] = m
		return
	}
	i := sort.Search(len(s.Members), func(i int) bool { return s.Members[i].Name >= m.Name })
	s.Members = append(s.Members, Member{})
	copy(s.Members[i+1:], s.Members[i:])
	s.Members[i] = m
}

// remove drops the named member if present.
func (s *State) remove(name string) {
	if i := s.find(name); i >= 0 {
		s.Members = append(s.Members[:i], s.Members[i+1:]...)
	}
}

// Apply folds one record into the state. This is the single definition
// of replay semantics: startup recovery and the record/replay harness
// both reconstruct registries through it. Unknown kinds advance LastSeq
// and change nothing else, so new record kinds stay readable by old
// fsck code.
func (s *State) Apply(r Record) {
	switch r.Kind {
	case KindRegister:
		target := 0
		if i := s.find(r.App); i >= 0 {
			target = s.Members[i].Target // re-register keeps the last target until the next rebalance
		}
		s.upsert(Member{Name: r.App, Procs: int(r.A), Weight: int(r.B), Target: target, LastSeen: r.At})
	case KindUnregister, KindLeaseExpiry:
		s.remove(r.App)
	case KindTarget:
		if i := s.find(r.App); i >= 0 {
			s.Members[i].Target = int(r.A)
		}
	case KindRebalance:
		s.Rebalances++
	case KindSetLoad:
		s.External = int(r.A)
	case KindSetCapacity:
		s.Capacity = int(r.A)
	case KindRestart:
		// A restart marker carries no state of its own: the recovered
		// registry is exactly what the preceding records reconstruct.
	}
	s.LastSeq = r.Seq
	s.At = r.At
}

// Clone returns a deep copy of the state.
func (s *State) Clone() State {
	out := *s
	out.Members = append([]Member(nil), s.Members...)
	return out
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

// appendRecordJSON encodes a record exactly as encoding/json marshals
// the Record struct (compact, fixed field order, zero-valued optional
// fields omitted), without allocating. Pinned to json.Marshal by test.
func appendRecordJSON(buf []byte, r *Record) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, r.Seq, 10)
	buf = append(buf, `,"at":`...)
	buf = strconv.AppendInt(buf, r.At, 10)
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, r.Kind)
	if r.App != "" {
		buf = append(buf, `,"app":`...)
		buf = appendJSONString(buf, r.App)
	}
	if r.A != 0 {
		buf = append(buf, `,"a":`...)
		buf = strconv.AppendInt(buf, r.A, 10)
	}
	if r.B != 0 {
		buf = append(buf, `,"b":`...)
		buf = strconv.AppendInt(buf, r.B, 10)
	}
	if r.Epoch != 0 {
		buf = append(buf, `,"epoch":`...)
		buf = strconv.AppendUint(buf, r.Epoch, 10)
	}
	return append(buf, '}')
}

// appendJSONString appends s as a JSON string the way encoding/json
// escapes it: control characters, quote, backslash, and the HTML-unsafe
// set (<, >, &) as \u00xx. App names and kinds are ASCII identifiers in
// practice; non-ASCII falls back to the (allocating) stdlib path for
// correctness.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Rare path: defer to encoding/json for exact escaping.
			b, err := json.Marshal(s)
			if err != nil {
				// A Go string always marshals; keep the signature total.
				return append(append(buf, '"'), '"')
			}
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
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

// EncodeRecord returns the record's canonical payload bytes (no frame).
func EncodeRecord(r Record) []byte {
	return appendRecordJSON(nil, &r)
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
