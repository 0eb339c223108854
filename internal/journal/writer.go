package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"procctl/internal/flight"
	"procctl/internal/metrics"
)

// Options tunes a Writer. The zero value selects the defaults.
type Options struct {
	// SyncEvery batches fsyncs: the file is fsynced after this many
	// appends (default 64; 1 fsyncs every append). Snapshot and Close
	// always sync. Records between fsyncs survive a process kill (the
	// page cache holds them) but not a machine crash.
	SyncEvery int
	// SegmentBytes rotates to a fresh segment once the current one
	// grows past this size (default 4 MiB).
	SegmentBytes int64
	// SnapshotEvery, when positive, makes ShouldSnapshot report true
	// after this many appends since the last snapshot. The Writer never
	// snapshots on its own — it cannot see the registry — so the owner
	// checks ShouldSnapshot and calls WriteSnapshot with fresh state.
	SnapshotEvery int
	// Retain is how many snapshots to keep (default 2: the newest plus
	// one fallback should the newest prove unreadable). Segments are
	// pruned only once they are older than the oldest retained
	// snapshot, so recovery can always replay forward from any retained
	// snapshot.
	Retain int
	// Metrics, when non-nil, receives journal_appends_total,
	// journal_fsyncs_total, journal_fsync_micros, journal_snapshots_total,
	// journal_bytes_total, and journal_append_errors_total.
	Metrics *metrics.Registry
	// NowMicros, when non-nil, times fsyncs for the latency histogram.
	// The package never reads a clock itself.
	NowMicros func() int64
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Retain <= 0 {
		o.Retain = 2
	}
	return o
}

// Writer appends records and snapshots to a journal directory. All
// methods are safe for concurrent use; appends are serialized in call
// order. I/O failures are sticky: after the first one every Append
// returns it (and counts journal_append_errors_total), so a daemon can
// keep serving with durability degraded rather than crash its control
// plane on a full disk.
type Writer struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	f       *os.File
	bw      *bufio.Writer
	payload []byte // record JSON scratch
	frame   []byte // framed-record scratch (separate: appendFrame reads payload)
	err     error  // first I/O failure, sticky

	nextSeq   uint64
	segStart  uint64 // first seq the current segment can hold
	segBytes  int64
	unsynced  int
	sinceSnap int

	appends, fsyncs, snapshots, appendErrors, bytes *metrics.Counter
	fsyncMicros                                     *metrics.Histogram
}

// Open creates a Writer appending to dir at nextSeq — 1 for a fresh
// journal, or RecoverResult.NextSeq to continue after recovery. Open
// repairs the directory first (Repair: truncate torn tails, drop
// post-break segments) so stale damage can never shadow fresh records,
// then starts a new segment; it never appends into an old one.
func Open(dir string, nextSeq uint64, opts Options) (*Writer, error) {
	if nextSeq < 1 {
		nextSeq = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	res, err := Recover(dir)
	if err != nil {
		return nil, err
	}
	if err := Repair(dir, res); err != nil {
		return nil, err
	}
	w := &Writer{
		dir:     dir,
		opts:    opts.withDefaults(),
		payload: make([]byte, 0, 256),
		frame:   make([]byte, 0, 256+frameHdr),
		nextSeq: nextSeq,
	}
	if reg := w.opts.Metrics; reg != nil {
		w.appends = reg.Counter("journal_appends_total", "records appended to the durability journal")
		w.fsyncs = reg.Counter("journal_fsyncs_total", "journal fsync batches flushed to disk")
		w.snapshots = reg.Counter("journal_snapshots_total", "registry snapshots written")
		w.appendErrors = reg.Counter("journal_append_errors_total", "records lost to journal I/O failures")
		w.bytes = reg.Counter("journal_bytes_total", "bytes appended to journal segments")
		w.fsyncMicros = reg.Histogram("journal_fsync_micros", "journal fsync batch latency", metrics.LatencyBuckets)
	}
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// Dir returns the journal directory.
func (w *Writer) Dir() string { return w.dir }

// NextSeq returns the sequence number the next Append will be assigned.
func (w *Writer) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// Err returns the sticky I/O error, if any append or sync has failed.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// openSegmentLocked starts the segment whose first record will be
// w.nextSeq. Callers hold w.mu (or own the writer exclusively).
func (w *Writer) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(w.nextSeq)),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, 64<<10)
	} else {
		w.bw.Reset(f)
	}
	w.segStart = w.nextSeq
	w.segBytes = int64(magicLen)
	return nil
}

// Append assigns the next sequence number to rec, writes its frame, and
// returns the sequence. Zero-alloc in steady state: the encoder reuses
// the writer's scratch buffer and the frame goes through a fixed
// bufio.Writer. Fsync batching and segment rotation happen inline.
func (w *Writer) Append(rec Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		if w.appendErrors != nil {
			w.appendErrors.Inc()
		}
		return 0, w.err
	}
	rec.Seq = w.nextSeq
	w.payload = flight.AppendJSON(w.payload[:0], &rec)
	w.frame = appendFrame(w.frame[:0], w.payload)
	if _, err := w.bw.Write(w.frame); err != nil {
		w.failLocked(err)
		return 0, w.err
	}
	w.nextSeq++
	w.segBytes += int64(len(w.frame))
	w.unsynced++
	w.sinceSnap++
	if w.appends != nil {
		w.appends.Inc()
		w.bytes.Add(int64(len(w.frame)))
	}
	if w.unsynced >= w.opts.SyncEvery {
		if err := w.syncLocked(); err != nil {
			return 0, w.err
		}
	}
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, w.err
		}
	}
	return rec.Seq, nil
}

// failLocked records the first I/O error; later calls keep the original.
func (w *Writer) failLocked(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("journal: %w", err)
	}
	if w.appendErrors != nil {
		w.appendErrors.Inc()
	}
}

// Sync flushes buffered frames and fsyncs the segment.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if err := w.bw.Flush(); err != nil {
		w.failLocked(err)
		return w.err
	}
	var start int64
	if w.opts.NowMicros != nil {
		start = w.opts.NowMicros()
	}
	if err := w.f.Sync(); err != nil {
		w.failLocked(err)
		return w.err
	}
	if w.fsyncs != nil {
		w.fsyncs.Inc()
		if w.opts.NowMicros != nil {
			w.fsyncMicros.Observe(w.opts.NowMicros() - start)
		}
	}
	w.unsynced = 0
	return nil
}

// rotateLocked syncs and closes the current segment and opens the next.
func (w *Writer) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.failLocked(err)
		return w.err
	}
	if err := w.openSegmentLocked(); err != nil {
		w.failLocked(err)
		return w.err
	}
	return nil
}

// ShouldSnapshot reports whether SnapshotEvery appends have accumulated
// since the last snapshot. The owner is expected to follow up with
// WriteSnapshot(current registry state); the counter resets there.
func (w *Writer) ShouldSnapshot() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.opts.SnapshotEvery > 0 && w.sinceSnap >= w.opts.SnapshotEvery && w.err == nil
}

// WriteSnapshot durably stores st, stamped with the current sequence
// position, rotates to a fresh segment, and prunes history: snapshots
// beyond Retain and segments entirely covered by the oldest retained
// snapshot are deleted. The snapshot is written to a temp file, fsynced,
// and renamed, so a torn snapshot write can never shadow an older good
// one.
func (w *Writer) WriteSnapshot(st State) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	st.LastSeq = w.nextSeq - 1
	if err := w.syncLocked(); err != nil {
		return err
	}

	payload, err := json.Marshal(&st)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	buf := append([]byte(snapMagic), appendFrame(nil, payload)...)
	tmp := filepath.Join(w.dir, "snap.tmp")
	if err := writeFileSync(tmp, buf); err != nil {
		w.failLocked(err)
		return w.err
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapshotName(st.LastSeq))); err != nil {
		w.failLocked(err)
		return w.err
	}

	// Start a fresh segment so every segment belongs wholly to one
	// snapshot epoch, then prune.
	if err := w.f.Close(); err != nil {
		w.failLocked(err)
		return w.err
	}
	if err := w.openSegmentLocked(); err != nil {
		w.failLocked(err)
		return w.err
	}
	w.sinceSnap = 0
	if w.snapshots != nil {
		w.snapshots.Inc()
	}
	w.pruneLocked()
	return nil
}

// pruneLocked deletes snapshots beyond Retain and segments whose every
// record is at or below the oldest retained snapshot's LastSeq. Pruning
// is best-effort: a failed delete leaves extra history, never less.
func (w *Writer) pruneLocked() {
	snaps, segs, err := listDir(w.dir)
	if err != nil {
		return
	}
	if len(snaps) > w.opts.Retain {
		for _, s := range snaps[:len(snaps)-w.opts.Retain] {
			os.Remove(filepath.Join(w.dir, s.name))
		}
		snaps = snaps[len(snaps)-w.opts.Retain:]
	}
	if len(snaps) < w.opts.Retain {
		// Not enough fallback snapshots yet; keep every segment so the
		// full record stream stays replayable from genesis.
		return
	}
	anchor := snaps[0].seq // oldest retained snapshot's LastSeq
	for i := 0; i+1 < len(segs); i++ {
		// A segment's records all precede the next segment's first seq,
		// so it is covered by the anchor iff the next segment starts at
		// or before anchor+1. Never touch the active segment.
		if segs[i+1].seq <= anchor+1 && segs[i].seq != w.segStart {
			os.Remove(filepath.Join(w.dir, segs[i].name))
		}
	}
}

// Close syncs and closes the journal. Further appends fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.syncLocked()
	}
	err := w.err
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	if w.err == nil {
		w.err = errClosed
	}
	return err
}

var errClosed = errors.New("journal: writer closed")

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seqFile is one journal file with its embedded sequence number.
type seqFile struct {
	name string
	seq  uint64 // segments: first record seq; snapshots: LastSeq
}

// listDir enumerates the journal directory, returning snapshots and
// segments sorted by ascending sequence. Unknown files are ignored.
func listDir(dir string) (snaps, segs []seqFile, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if seq, ok := parseSeqName(name, "wal-", ".log"); ok {
			segs = append(segs, seqFile{name, seq})
		} else if seq, ok := parseSeqName(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seqFile{name, seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return snaps, segs, nil
}
