package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

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

// appendString appends s as a JSON string, byte-identical to
// encoding/json's output (including its HTML-safe escaping of <, >, and
// &). Strings in a trace are almost always short ASCII identifiers, so
// the common case is a copy between quotes; anything that needs
// escaping falls back to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				panic(err) // cannot happen for a string
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendEvent appends ev's JSON-lines encoding to b, byte-identical to
// encoding/json's (struct field order, the omitempty set, HTML-safe
// string escaping, trailing newline) — same-seed traces must stay
// byte-identical across versions, so the golden trace test and
// TestAppendEventMatchesEncodingJSON both pin the equivalence. The
// hand-rolled path exists because the recorder serializes millions of
// lines per run and reflection-driven marshaling dominated its profile.
func appendEvent(b []byte, ev *Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(ev.T), 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, ev.Kind)
	if ev.PID != 0 {
		b = append(b, `,"pid":`...)
		b = strconv.AppendInt(b, int64(ev.PID), 10)
	}
	if ev.App != 0 {
		b = append(b, `,"app":`...)
		b = strconv.AppendInt(b, int64(ev.App), 10)
	}
	if ev.Name != "" {
		b = append(b, `,"name":`...)
		b = appendString(b, ev.Name)
	}
	if ev.From != "" {
		b = append(b, `,"from":`...)
		b = appendString(b, ev.From)
	}
	if ev.To != "" {
		b = append(b, `,"to":`...)
		b = appendString(b, ev.To)
	}
	if ev.CPU != nil {
		b = append(b, `,"cpu":`...)
		b = strconv.AppendInt(b, int64(*ev.CPU), 10)
	}
	if ev.Lock != "" {
		b = append(b, `,"lock":`...)
		b = appendString(b, ev.Lock)
	}
	if ev.Holder != 0 {
		b = append(b, `,"holder":`...)
		b = strconv.AppendInt(b, int64(ev.Holder), 10)
	}
	if ev.HolderState != "" {
		b = append(b, `,"holder_state":`...)
		b = appendString(b, ev.HolderState)
	}
	if ev.First {
		b = append(b, `,"first":true`...)
	}
	if ev.Forced {
		b = append(b, `,"forced":true`...)
	}
	if ev.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, int64(ev.Dur), 10)
	}
	if ev.Wait != 0 {
		b = append(b, `,"wait":`...)
		b = strconv.AppendInt(b, int64(ev.Wait), 10)
	}
	if ev.SW != 0 {
		b = append(b, `,"sw":`...)
		b = strconv.AppendInt(b, int64(ev.SW), 10)
	}
	if ev.RL != 0 {
		b = append(b, `,"rl":`...)
		b = strconv.AppendInt(b, int64(ev.RL), 10)
	}
	if ev.Layer != "" {
		b = append(b, `,"layer":`...)
		b = appendString(b, ev.Layer)
	}
	if ev.Task != nil {
		b = append(b, `,"task":`...)
		b = strconv.AppendInt(b, int64(*ev.Task), 10)
	}
	if ev.Target != nil {
		b = append(b, `,"target":`...)
		b = strconv.AppendInt(b, int64(*ev.Target), 10)
	}
	if ev.Cause != 0 {
		b = append(b, `,"cause":`...)
		b = strconv.AppendInt(b, ev.Cause, 10)
	}
	return append(b, '}', '\n')
}

// Recorder streams cross-layer scheduling events as JSON lines — the
// simulator's equivalent of a kernel tracepoint log with user-level
// annotations folded in. Analyze the output with ReadSummary,
// ReadAttribution, or WriteChrome (or cmd/procctl-trace).
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
	k.OnDispatch = func(p *kernel.Process, cpu int, wait sim.Duration) {
		if prevDispatch != nil {
			prevDispatch(p, cpu, wait)
		}
		r.emit(Event{T: k.Now(), Kind: "dispatch", PID: p.ID(), App: p.App(),
			CPU: intp(cpu), Wait: wait})
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
	mac := k.Machine()
	prevCost := mac.OnDispatchCost
	mac.OnDispatchCost = func(cpu int, sw, rl sim.Duration) {
		if prevCost != nil {
			prevCost(cpu, sw, rl)
		}
		ev := Event{T: k.Now(), Kind: "overhead", CPU: intp(cpu), SW: sw, RL: rl}
		// The dispatch that charged the cost has already placed its
		// process on the CPU, so the subject is whoever runs there now.
		if p := k.RunningOn(cpu); p != nil {
			ev.PID = p.ID()
			ev.App = p.App()
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

// AppSummary aggregates one application's trace.
type AppSummary struct {
	App        kernel.AppID
	Procs      int
	Running    sim.Duration // total process-time in Running
	Runnable   sim.Duration // total process-time waiting on a run queue
	Blocked    sim.Duration // total process-time asleep (incl. suspension)
	Dispatches int64
	FirstSpawn sim.Time
	LastExit   sim.Time
}

// Summary is the analysis of a recorded trace.
type Summary struct {
	Header *Header
	Events int64
	End    sim.Time
	Apps   []AppSummary // sorted by AppID (AppNone first)
}

// ReadSummary parses a JSONL trace and aggregates per-application state
// residency: the same fold as ReadAttribution, without the intervals
// still open at the recording horizon. Unknown event kinds are an
// error, and a trace truncated mid-run is fine (open intervals are
// dropped).
func ReadSummary(rd io.Reader) (*Summary, error) {
	f, err := foldTrace(rd)
	if err != nil {
		return nil, err
	}
	sum := &Summary{Header: f.hdr, Events: f.events, End: f.end}
	for _, app := range sortedKeys(f.apps) {
		a := f.apps[app]
		a.sum.Procs = a.Procs
		sum.Apps = append(sum.Apps, a.sum)
	}
	return sum, nil
}

// Render prints the summary as a table.
func (s *Summary) Render() string {
	h, ctl := s.Header, "off"
	if h.Control {
		ctl = "on"
	}
	t := NewTable(fmt.Sprintf("Trace summary: %d events over %v (policy %s, seed %d, %d cpus, control %s)",
		s.Events, s.End, h.Policy, h.Seed, h.CPUs, ctl),
		"app", "procs", "running", "ready-wait", "blocked", "dispatches", "span")
	for _, a := range s.Apps {
		label := fmt.Sprintf("app %d", a.App)
		if a.App == kernel.AppNone {
			label = "system"
		}
		span := sim.Duration(0)
		if a.LastExit > 0 && a.FirstSpawn >= 0 {
			span = a.LastExit.Sub(a.FirstSpawn)
		}
		t.Row(label, a.Procs, a.Running, a.Runnable, a.Blocked, a.Dispatches, span)
	}
	return t.String()
}
