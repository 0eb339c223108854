package journal

import (
	"cmp"
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
	// SyncEvery is the fsync batch (default 64). A record is in the
	// kernel when its append returns, so a process kill loses none, and
	// on disk within SyncEvery appends, so a machine crash loses fewer
	// than that. With 1, it is on disk before the append returns. Above
	// 1, no append fsyncs: once SyncEvery appends (or a rotated-out
	// segment) wait, the append starts the Writer's sync goroutine, which
	// runs Sync beside later appends rather than in front of them. A
	// snapshot reaches the disk the same way, and Close always syncs.
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
// order. An append holds mu for its write alone, and WriteSnapshot for
// its cut alone; Sync, the one path to the disk, holds it only to take
// and to settle what it fsyncs and writes, so neither ever waits on the
// disk. Syncs are serialized by smu (taken before mu), which is what
// keeps a segment open while Sync fsyncs it. Above SyncEvery 1 the
// Writer schedules its own syncs: at most one sync goroutine runs at a
// time, and Close joins it.
// I/O failures are sticky: after the first one every Append
// returns it (and counts journal_append_errors_total), so a daemon can
// keep serving with durability degraded rather than crash its control
// plane on a full disk.
type Writer struct {
	smu     sync.Mutex
	mu      sync.Mutex
	dir     string
	opts    Options
	f       *os.File   // the active segment
	retired []*os.File // rotated-out segments the next sync fsyncs and closes
	snap    *State     // the newest snapshot cut since the last sync took one
	payload []byte     // record JSON scratch
	buf     []byte     // one append's frames, written with one write(2)
	err     error      // first I/O failure, sticky

	nextSeq   uint64
	cutAt     uint64 // nextSeq at the newest cut, this Writer's or Recover's snapshot; 0 = none
	segBytes  int64
	unsynced  int // appends written since the last sync took its files
	sinceSnap int

	// Under mu: syncing while the sync goroutine runs, closing once Close
	// has begun (no append lands and no goroutine starts after that).
	// Close joins the goroutine by syncer.
	syncing, closing bool
	syncer           sync.WaitGroup
	syncFn           func() // syncLoop, made once: starting it allocates nothing

	appends, fsyncs, snapshots, appendErrors, bytes *metrics.Counter
	fsyncMicros                                     *metrics.Histogram
}

// Open creates a Writer appending to dir at nextSeq — 1 for a fresh
// journal. It runs Recover and opens as RecoverResult.Open does, but at
// nextSeq rather than at the recovered position.
func Open(dir string, nextSeq uint64, opts Options) (*Writer, error) {
	res, err := Recover(dir)
	if err != nil {
		return nil, err
	}
	return res.open(dir, max(nextSeq, 1), opts)
}

// Open creates a Writer appending to dir where res, Recover's result for
// dir, ends (res.NextSeq), so a boot reads the journal once. It repairs
// the directory first (Repair: truncate torn tails, drop post-break
// segments) so stale damage can never shadow fresh records, then starts
// a new segment; it never appends into an old one. Nothing may write to
// dir between the Recover and the Open.
func (res *RecoverResult) Open(dir string, opts Options) (*Writer, error) {
	return res.open(dir, res.NextSeq, opts)
}

func (res *RecoverResult) open(dir string, nextSeq uint64, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := Repair(dir, res); err != nil {
		return nil, err
	}
	w := &Writer{
		dir:     dir,
		opts:    opts.withDefaults(),
		payload: make([]byte, 0, 256),
		buf:     make([]byte, 0, 256+frameHdr),
		nextSeq: nextSeq,
	}
	if res.SnapshotSeq > 0 {
		w.cutAt = res.SnapshotSeq + 1
	}
	w.syncFn = w.syncLoop
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
	w.segBytes = int64(magicLen)
	return nil
}

// Append assigns the next sequence number to rec, writes its frame, and
// returns the sequence. Zero-alloc in steady state: the encoder reuses
// the writer's scratch buffers. The frame is in the kernel when Append
// returns, and on disk too with SyncEvery 1; see Options.SyncEvery.
func (w *Writer) Append(rec Record) (uint64, error) {
	recs := [1]Record{rec}
	return w.append(recs[:], nil)
}

// AppendBatch appends recs in order, each as Append would, and writes
// their frames with one write(2) per segment they land in. With
// SyncEvery 1 the batch is fsynced, once, before AppendBatch returns.
func (w *Writer) AppendBatch(recs []Record) error {
	_, err := w.append(recs, nil)
	return err
}

// WriteSnapshot cuts a snapshot of st at the current sequence position:
// under mu alone it stamps st's LastSeq, retires the active segment so
// every segment belongs wholly to one snapshot epoch, and queues st for
// the sync, which is scheduled as an append's is and writes it; a newer
// cut replaces st if no sync has taken it yet. A cut where the newest one
// was — this Writer's, or the snapshot Recover started from — with no
// record since is a no-op: it rotates nothing and writes nothing. With
// SyncEvery 1 the snapshot is on disk when WriteSnapshot returns; above
// it, once the sync goroutine, Sync or Close has run. The Writer keeps
// st until then, so the caller must not modify its Members.
func (w *Writer) WriteSnapshot(st State) error {
	_, err := w.append(nil, &st)
	return err
}

// append is Append and AppendBatch, and with snap WriteSnapshot's cut: it
// returns the first record's seq. It starts the sync goroutine if a sync
// is now due, and with SyncEvery 1 runs Sync itself.
func (w *Writer) append(recs []Record, snap *State) (first uint64, err error) {
	if len(recs) == 0 && snap == nil {
		return 0, nil
	}
	w.mu.Lock()
	first = w.nextSeq
	err = w.writeLocked(recs)
	if err == nil && snap != nil {
		if w.nextSeq == w.cutAt {
			w.mu.Unlock()
			return first, nil // nothing journaled since the newest cut
		}
		snap.LastSeq = w.nextSeq - 1
		if err = w.rotateLocked(0); err == nil {
			w.snap = snap // supersedes a cut no sync has taken yet
			w.sinceSnap = 0
			w.cutAt = w.nextSeq
		}
	}
	start := err == nil && w.opts.SyncEvery > 1 && !w.syncing && w.dueLocked()
	if start {
		w.syncing = true
		w.syncer.Add(1)
	}
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if start {
		go w.syncFn()
	}
	if w.opts.SyncEvery == 1 {
		return first, w.Sync()
	}
	return first, nil
}

// dueLocked reports whether SyncEvery appends or a rotated-out segment
// (a snapshot's cut retires one) wait.
func (w *Writer) dueLocked() bool {
	return !w.closing && (w.unsynced >= w.opts.SyncEvery || len(w.retired) > 0)
}

// syncLoop is the sync goroutine: it runs Sync until none is due, so the
// appends that found it running are covered too.
func (w *Writer) syncLoop() {
	defer w.syncer.Done()
	for more := true; more; {
		err := w.Sync()
		w.mu.Lock()
		more = err == nil && w.dueLocked()
		w.syncing = more
		w.mu.Unlock()
	}
}

// writeLocked frames recs into buf and writes them to the active
// segment: in one write, unless a segment fills first, in which case
// the frames so far are written, the segment is retired, and a fresh one
// takes the rest. Once Close has begun it refuses them.
func (w *Writer) writeLocked(recs []Record) error {
	if w.err != nil || w.closing {
		if w.appendErrors != nil {
			w.appendErrors.Add(int64(len(recs)))
		}
		return cmp.Or(w.err, errClosed)
	}
	framed := 0 // records in buf
	for i, rec := range recs {
		rec.Seq = w.nextSeq
		w.payload = flight.AppendJSON(w.payload[:0], &rec)
		n := len(w.buf)
		w.buf = appendFrame(w.buf, w.payload)
		w.nextSeq++
		w.segBytes += int64(len(w.buf) - n)
		framed++
		full := w.segBytes >= w.opts.SegmentBytes
		if !full && i < len(recs)-1 {
			continue
		}
		if _, err := w.f.Write(w.buf); err != nil {
			w.failLocked(err, framed+len(recs)-1-i)
			return w.err
		}
		w.unsynced += framed
		w.sinceSnap += framed
		if w.appends != nil {
			w.appends.Add(int64(framed))
			w.bytes.Add(int64(len(w.buf)))
		}
		w.buf, framed = w.buf[:0], 0
		if full {
			if err := w.rotateLocked(len(recs) - 1 - i); err != nil {
				return err
			}
		}
	}
	return nil
}

// rotateLocked retires the active segment for the next sync to fsync and
// close, and starts a fresh one at nextSeq; failing, it costs lost records.
func (w *Writer) rotateLocked(lost int) error {
	w.retired = append(w.retired, w.f)
	w.f = nil
	if err := w.openSegmentLocked(); err != nil {
		w.failLocked(err, lost)
		return w.err
	}
	return nil
}

// failLocked records the first I/O error (later calls keep the
// original) and counts the records it cost.
func (w *Writer) failLocked(err error, lost int) {
	if w.err == nil {
		w.err = fmt.Errorf("journal: %w", err)
	}
	if w.appendErrors != nil {
		w.appendErrors.Add(int64(lost))
	}
}

// Sync is the Writer's one path to the disk. It fsyncs every record
// appended so far — the rotated-out segments (closing them) and the
// active one — then writes the newest snapshot cut since the last sync
// and prunes. It holds mu only to take the files and snapshot and to settle
// the count, never across the disk work, so appends and cuts proceed
// while it runs; smu keeps Close from closing a file under it. A failure
// is sticky like a failed write: the next append returns it.
func (w *Writer) Sync() error {
	w.smu.Lock()
	defer w.smu.Unlock()
	return w.sync()
}

// sync is Sync for a caller holding smu.
func (w *Writer) sync() error {
	w.mu.Lock()
	if w.err != nil {
		defer w.mu.Unlock()
		return w.err
	}
	retired, active, snap, n := w.retired, w.f, w.snap, w.unsynced
	w.retired, w.snap = nil, nil
	w.mu.Unlock()
	lost, err := n, w.fsync(retired, active)
	if err == nil {
		lost = 0
		if snap != nil {
			err = w.writeSnapshot(snap)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.unsynced -= n - lost
	if err != nil {
		w.failLocked(err, lost)
		return w.err
	}
	return nil
}

// fsync syncs and closes the rotated-out segments, then syncs the active
// one. Callers hold smu, which keeps every file open until it returns.
func (w *Writer) fsync(retired []*os.File, active *os.File) error {
	var start int64
	if w.opts.NowMicros != nil {
		start = w.opts.NowMicros()
	}
	var err error
	for _, f := range retired {
		err = cmp.Or(err, f.Sync(), f.Close())
	}
	if err = cmp.Or(err, active.Sync()); err == nil && w.fsyncs != nil {
		w.fsyncs.Inc()
		if w.opts.NowMicros != nil {
			w.fsyncMicros.Observe(w.opts.NowMicros() - start)
		}
	}
	return err
}

// writeSnapshot writes the snapshot a sync took to a temp file that is
// fsynced and renamed, so a torn snapshot write can never shadow an
// older good one, then prunes. Callers hold smu.
func (w *Writer) writeSnapshot(st *State) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := filepath.Join(w.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(appendFrame([]byte(snapMagic), payload))
	if err := cmp.Or(err, f.Sync(), f.Close()); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapshotName(st.LastSeq))); err != nil {
		return err
	}
	if w.snapshots != nil {
		w.snapshots.Inc()
	}
	w.prune(st.LastSeq)
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

// prune deletes snapshots beyond Retain and segments whose every record
// is at or below the oldest retained snapshot's LastSeq — never a segment
// that starts after last, the LastSeq of the snapshot just written, as
// the active one does. Pruning is best-effort: a failed delete leaves extra
// history, never less. Callers hold smu.
func (w *Writer) prune(last uint64) {
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
		// or before anchor+1.
		if segs[i].seq <= last && segs[i+1].seq <= anchor+1 {
			os.Remove(filepath.Join(w.dir, segs[i].name))
		}
	}
}

// Close refuses further appends and snapshots, joins the sync goroutine,
// then syncs and closes the journal.
func (w *Writer) Close() error {
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	w.syncer.Wait()
	w.smu.Lock()
	defer w.smu.Unlock()
	w.sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	for _, f := range w.retired { // left by a failure; already failed
		f.Close()
	}
	w.retired, w.snap = nil, nil
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
