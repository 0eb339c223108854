package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"procctl/internal/flight"
	"procctl/internal/kernel"
	"procctl/internal/sim"
)

// FormatVersion is the trace file format emitted by Recorder. Version 2
// added the header line, lock/overhead/annotation events, and the
// pointer encoding of CPU (v1 could not distinguish CPU 0 from "no
// CPU"). Every reader requires the header and rejects a headerless v1
// trace.
const FormatVersion = 2

// Header is the first line of a v2 trace: enough provenance to detect a
// stale or mismatched trace before aggregating it.
type Header struct {
	Kind    string `json:"kind"` // always "header"
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	Policy  string `json:"policy"`
	CPUs    int    `json:"cpus"`
	Control bool   `json:"control"`
}

// Meta carries the header fields the kernel cannot supply itself.
type Meta struct {
	Seed    uint64
	Control bool
}

// Event is one event in a recorded trace, serialized as one JSON object
// per line. Kinds and their payloads:
//
//	spawn        PID, App, Name
//	state        PID, App, From, To; CPU when To is "running"
//	exit         PID, App, Name
//	dispatch     PID, App, CPU; Wait is the ready-queue latency just ended
//	overhead     PID, App, CPU; SW and RL are the context-switch and
//	             cache-reload penalties charged by this dispatch
//	contend      PID, App, CPU, Lock; Holder and HolderState identify the
//	             process keeping the waiter spinning and its run state at
//	             this instant; First marks the start of the whole
//	             contended acquisition (as opposed to a busy-wait leg
//	             resumed after preemption)
//	acquire      PID, App, Lock; Dur is the final busy-wait leg's length
//	release      PID, App, Lock; Dur is the hold time; Forced marks a
//	             release performed by fault recovery on a dead holder's
//	             behalf
//	task_start   threads layer: PID, App, Task
//	task_done    threads layer: PID, App, Task, Dur (service time)
//	barrier_wait threads layer: PID, App, Dur (idle busy-wait length)
//	suspend      threads layer: PID, App, Target
//	resume       threads layer: PID, App, Target, Dur (suspension span)
//	poll         threads layer: PID, App, Target (the polled answer)
//	target       ctrl layer: App, Target, Cause (the deciding server scan)
//	end          T only: the recording horizon, written by Close
//
// Every event carries its virtual-time instant T; CPU is present when
// the subject process is on a processor at that instant.
type Event struct {
	T    sim.Time     `json:"t"`
	Kind string       `json:"kind"`
	PID  kernel.PID   `json:"pid,omitempty"`
	App  kernel.AppID `json:"app,omitempty"`
	Name string       `json:"name,omitempty"`
	From string       `json:"from,omitempty"`
	To   string       `json:"to,omitempty"`
	CPU  *int         `json:"cpu,omitempty"`

	Lock        string       `json:"lock,omitempty"`
	Holder      kernel.PID   `json:"holder,omitempty"`
	HolderState string       `json:"holder_state,omitempty"`
	First       bool         `json:"first,omitempty"`
	Forced      bool         `json:"forced,omitempty"`
	Dur         sim.Duration `json:"dur,omitempty"`
	Wait        sim.Duration `json:"wait,omitempty"`
	SW          sim.Duration `json:"sw,omitempty"`
	RL          sim.Duration `json:"rl,omitempty"`

	Layer  string `json:"layer,omitempty"`
	Task   *int   `json:"task,omitempty"`
	Target *int   `json:"target,omitempty"`
	Cause  int64  `json:"cause,omitempty"`
}

func intp(i int) *int { return &i }

// appendEvent appends ev's JSON-lines encoding to b, byte-identical to
// encoding/json's (struct field order, the omitempty set, HTML-safe
// string escaping by flight.AppendString, trailing newline) — same-seed
// traces must stay byte-identical across versions, so the golden trace
// test and TestAppendEventMatchesEncodingJSON both pin the equivalence. The
// hand-rolled path exists because the recorder serializes millions of
// lines per run and reflection-driven marshaling dominated its profile.
func appendEvent(b []byte, ev *Event) []byte {
	b = strconv.AppendInt(append(b, `{"t":`...), int64(ev.T), 10)
	b = flight.AppendString(append(b, `,"kind":`...), ev.Kind)
	b = appendIntField(b, `,"pid":`, int64(ev.PID))
	b = appendIntField(b, `,"app":`, int64(ev.App))
	b = appendStringField(b, `,"name":`, ev.Name)
	b = appendStringField(b, `,"from":`, ev.From)
	b = appendStringField(b, `,"to":`, ev.To)
	if ev.CPU != nil {
		b = strconv.AppendInt(append(b, `,"cpu":`...), int64(*ev.CPU), 10)
	}
	b = appendStringField(b, `,"lock":`, ev.Lock)
	b = appendIntField(b, `,"holder":`, int64(ev.Holder))
	b = appendStringField(b, `,"holder_state":`, ev.HolderState)
	if ev.First {
		b = append(b, `,"first":true`...)
	}
	if ev.Forced {
		b = append(b, `,"forced":true`...)
	}
	b = appendIntField(b, `,"dur":`, int64(ev.Dur))
	b = appendIntField(b, `,"wait":`, int64(ev.Wait))
	b = appendIntField(b, `,"sw":`, int64(ev.SW))
	b = appendIntField(b, `,"rl":`, int64(ev.RL))
	b = appendStringField(b, `,"layer":`, ev.Layer)
	if ev.Task != nil {
		b = strconv.AppendInt(append(b, `,"task":`...), int64(*ev.Task), 10)
	}
	if ev.Target != nil {
		b = strconv.AppendInt(append(b, `,"target":`...), int64(*ev.Target), 10)
	}
	b = appendIntField(b, `,"cause":`, ev.Cause)
	return append(b, '}', '\n')
}

// appendIntField and appendStringField append key and v unless v is
// zero (json's omitempty).
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendStringField(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return flight.AppendString(append(b, key...), v)
}

// Recorder streams cross-layer scheduling events as JSON lines — the
// simulator's equivalent of a kernel tracepoint log with user-level
// annotations folded in. Analyze the output with ReadAttribution,
// WriteChrome or WriteGantt (or cmd/procctl-trace).
type Recorder struct {
	k      *kernel.Kernel
	w      *bufio.Writer
	buf    []byte // per-event scratch, reused so emit never allocates
	err    error
	events int64
	closed bool
}

// NewRecorder installs a recorder on k writing to w, starting with a
// version-2 header line built from k and meta. It chains any hooks
// already installed on the kernel or its machine.
func NewRecorder(k *kernel.Kernel, w io.Writer, meta Meta) *Recorder {
	// A large buffer matters: a figure run emits millions of lines, and
	// the default 4 KiB buffer made the underlying writer the bottleneck.
	bw := bufio.NewWriterSize(w, 1<<18)
	r := &Recorder{k: k, w: bw, buf: make([]byte, 0, 256)}
	hdr, err := json.Marshal(Header{
		Kind:    "header",
		Version: FormatVersion,
		Seed:    meta.Seed,
		Policy:  k.Policy().Name(),
		CPUs:    k.NumCPU(),
		Control: meta.Control,
	})
	if err == nil {
		_, err = bw.Write(append(hdr, '\n'))
	}
	r.err = err

	prevSpawn := k.OnSpawn
	k.OnSpawn = func(p *kernel.Process) {
		if prevSpawn != nil {
			prevSpawn(p)
		}
		r.emit(Event{T: k.Now(), Kind: "spawn", PID: p.ID(), App: p.App(), Name: p.Name()})
	}
	prevState := k.OnStateChange
	k.OnStateChange = func(p *kernel.Process, old, next kernel.ProcState) {
		if prevState != nil {
			prevState(p, old, next)
		}
		ev := Event{T: k.Now(), Kind: "state", PID: p.ID(), App: p.App(),
			From: old.String(), To: next.String()}
		if next == kernel.Running {
			ev.CPU = intp(p.LastCPU())
		}
		r.emit(ev)
	}
	prevExit := k.OnExit
	k.OnExit = func(p *kernel.Process) {
		if prevExit != nil {
			prevExit(p)
		}
		r.emit(Event{T: k.Now(), Kind: "exit", PID: p.ID(), App: p.App(), Name: p.Name()})
	}
	prevDispatch := k.OnDispatch
	k.OnDispatch = func(p *kernel.Process, cpu int, wait, sw, rl sim.Duration) {
		if prevDispatch != nil {
			prevDispatch(p, cpu, wait, sw, rl)
		}
		r.emit(Event{T: k.Now(), Kind: "dispatch", PID: p.ID(), App: p.App(),
			CPU: intp(cpu), Wait: wait})
		if sw+rl > 0 {
			r.emit(Event{T: k.Now(), Kind: "overhead", PID: p.ID(), App: p.App(),
				CPU: intp(cpu), SW: sw, RL: rl})
		}
	}
	prevContend := k.OnLockContend
	k.OnLockContend = func(p *kernel.Process, l *kernel.SpinLock, holder *kernel.Process, first bool) {
		if prevContend != nil {
			prevContend(p, l, holder, first)
		}
		ev := Event{T: k.Now(), Kind: "contend", PID: p.ID(), App: p.App(),
			Lock: l.Name(), First: first}
		if p.State() == kernel.Running {
			ev.CPU = intp(p.LastCPU())
		}
		if holder != nil {
			ev.Holder = holder.ID()
			ev.HolderState = holder.State().String()
		}
		r.emit(ev)
	}
	prevAcquire := k.OnLockAcquire
	k.OnLockAcquire = func(p *kernel.Process, l *kernel.SpinLock, spun sim.Duration) {
		if prevAcquire != nil {
			prevAcquire(p, l, spun)
		}
		ev := Event{T: k.Now(), Kind: "acquire", PID: p.ID(), App: p.App(),
			Lock: l.Name(), Dur: spun}
		if p.State() == kernel.Running {
			ev.CPU = intp(p.LastCPU())
		}
		r.emit(ev)
	}
	prevRelease := k.OnLockRelease
	k.OnLockRelease = func(p *kernel.Process, l *kernel.SpinLock, held sim.Duration, forced bool) {
		if prevRelease != nil {
			prevRelease(p, l, held, forced)
		}
		ev := Event{T: k.Now(), Kind: "release", PID: p.ID(), App: p.App(),
			Lock: l.Name(), Dur: held, Forced: forced}
		if p.State() == kernel.Running {
			ev.CPU = intp(p.LastCPU())
		}
		r.emit(ev)
	}
	prevAnn := k.OnAnnotation
	k.OnAnnotation = func(a kernel.Annotation) {
		if prevAnn != nil {
			prevAnn(a)
		}
		ev := Event{T: k.Now(), Kind: a.Kind, Layer: a.Layer, PID: a.PID,
			App: a.App, Cause: a.Cause, Dur: a.Dur}
		if a.Task >= 0 {
			ev.Task = intp(a.Task)
		}
		if a.Target >= 0 {
			ev.Target = intp(a.Target)
		}
		if a.PID != 0 {
			if p := k.Lookup(a.PID); p != nil && p.State() == kernel.Running {
				ev.CPU = intp(p.LastCPU())
			}
		}
		r.emit(ev)
	}
	return r
}

func (r *Recorder) emit(ev Event) {
	if r.err != nil || r.closed {
		return
	}
	r.events++
	r.buf = appendEvent(r.buf[:0], &ev)
	if _, err := r.w.Write(r.buf); err != nil {
		r.err = err
	}
}

// Events returns how many events were recorded (excluding the header).
func (r *Recorder) Events() int64 { return r.events }

// Close marks the recording horizon with an "end" event and drains
// buffered output. Call it when the simulation ends (after Finalize, so
// trailing accounting events are included). Further events are dropped.
func (r *Recorder) Close() error {
	if !r.closed {
		r.emit(Event{T: r.k.Now(), Kind: "end"})
		r.closed = true
	}
	return r.Flush()
}

// Flush drains buffered output without ending the recording.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// readTrace decodes a JSONL trace and validates its header: a header on
// any line but the first, a version mismatch, or no header at all — a
// legacy v1 trace, which no build has written since FormatVersion 2, or an
// empty file — is an error, so nothing aggregates what it cannot read.
// Every non-header event is passed to fn.
func readTrace(rd io.Reader, fn func(Event) error) (*Header, error) {
	dec := json.NewDecoder(bufio.NewReader(rd))
	var hdr *Header
	line := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
		}
		line++
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if ev.Kind == "header" {
			if line != 1 {
				return nil, fmt.Errorf("trace: header on line %d, want line 1", line)
			}
			var h Header
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("trace: bad header: %w", err)
			}
			if h.Version != FormatVersion {
				return nil, fmt.Errorf("trace: format version %d, this build reads version %d — re-record the trace", h.Version, FormatVersion)
			}
			hdr = &h
			continue
		}
		if line == 1 {
			return nil, fmt.Errorf("trace: no header line — legacy v1 traces carry too little to analyze; re-record with this build")
		}
		if err := fn(ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
	}
	if hdr == nil {
		return nil, fmt.Errorf("trace: empty trace (no header line)")
	}
	return hdr, nil
}
