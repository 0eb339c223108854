package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"procctl/internal/kernel"
)

// chromeEvent is one entry of the Chrome trace-event format (the legacy
// JSON format ui.perfetto.dev and chrome://tracing both read). Times are
// microseconds — the simulator's native unit, so no conversion happens.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeWriter streams one Chrome trace-event document, the format both
// exports write: openChrome writes the framing, each event call appends
// one element of the traceEvents array, close ends the array. The first
// write error sticks: later calls do nothing and close returns it.
type chromeWriter struct {
	w   io.Writer
	n   int // events written
	err error
}

func openChrome(w io.Writer) *chromeWriter {
	cw := &chromeWriter{w: w}
	_, cw.err = io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	return cw
}

func (cw *chromeWriter) emit(ev chromeEvent) {
	if cw.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		cw.err = err
		return
	}
	sep := ",\n"
	if cw.n == 0 {
		sep = "\n"
	}
	cw.n++
	_, cw.err = fmt.Fprintf(cw.w, "%s%s", sep, b)
}

// instant is a zero-duration event; scope is "t" (thread), "p"
// (process) or "g" (global).
func (cw *chromeWriter) instant(name, cat, scope string, ts int64, pid, tid int, args map[string]any) {
	cw.emit(chromeEvent{Name: name, Cat: cat, Ph: "i", S: scope, Ts: ts, Pid: pid, Tid: tid, Args: args})
}

// slice is a complete event: [ts, ts+dur) on one track.
func (cw *chromeWriter) slice(name, cat string, ts, dur int64, pid, tid int, args map[string]any) {
	cw.emit(chromeEvent{Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: &dur, Pid: pid, Tid: tid, Args: args})
}

// flowHop is one point a flow arrow passes through.
type flowHop struct {
	ts       int64
	pid, tid int
}

// flow draws one arrow through hops in order: a start, steps, and a
// finish bound to the enclosing slice (bp "e").
func (cw *chromeWriter) flow(name, cat, id string, hops ...flowHop) {
	for i, h := range hops {
		ev := chromeEvent{Name: name, Cat: cat, Ph: "t", Ts: h.ts, Pid: h.pid, Tid: h.tid, ID: id}
		switch i {
		case 0:
			ev.Ph = "s"
		case len(hops) - 1:
			ev.Ph, ev.BP = "f", "e"
		}
		cw.emit(ev)
	}
}

// meta names a track; kind is "process_name" or "thread_name". Viewers
// apply metadata wherever it appears in the array.
func (cw *chromeWriter) meta(kind string, pid, tid int, label string) {
	cw.emit(chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": label}})
}

func (cw *chromeWriter) close() error {
	if cw.err != nil {
		return cw.err
	}
	_, err := io.WriteString(cw.w, "\n]}\n")
	return err
}

// WriteChrome converts a v2 JSONL trace into Chrome trace-event JSON:
// one track (thread) per CPU under a single "procctl" process, a
// complete slice for every interval a process occupies a CPU (the runs
// of runFold, which the Gantt timeline draws too), instant events for
// control suspensions/resumes and server target decisions, and flow
// arrows from each lock-contention event to the release that freed the
// lock. The output opens directly in ui.perfetto.dev.
//
// Like ReadAttribution, it requires the versioned header and fails
// loudly on legacy v1 traces.
func WriteChrome(rd io.Reader, w io.Writer) error {
	names := make(map[kernel.PID]string)
	pend := make(map[string][]flowHop) // lock -> its waiters' contend points
	flowSeq := 0
	cw := openChrome(w)

	label := func(pid kernel.PID) string {
		if n, ok := names[pid]; ok && n != "" {
			return n
		}
		return fmt.Sprintf("pid %d", pid)
	}
	runs := newRunFold(func(r cpuRun) {
		cw.slice(label(r.pid), "proc", int64(r.start), int64(r.end.Sub(r.start)), 0, r.cpu,
			map[string]any{"pid": int64(r.pid), "app": int64(r.app)})
	})

	hdr, err := readTrace(rd, func(ev Event) error {
		runs.step(ev)
		switch ev.Kind {
		case "spawn":
			names[ev.PID] = ev.Name
		case "contend":
			if ev.CPU != nil {
				pend[ev.Lock] = append(pend[ev.Lock], flowHop{ts: int64(ev.T), tid: *ev.CPU})
			}
		case "release":
			waiters := pend[ev.Lock]
			delete(pend, ev.Lock)
			if ev.CPU == nil {
				break // forced release of an off-CPU holder: no anchor
			}
			for _, h := range waiters {
				flowSeq++
				cw.flow(ev.Lock, "lock", fmt.Sprintf("%s#%d", ev.Lock, flowSeq),
					h, flowHop{ts: int64(ev.T), tid: *ev.CPU})
			}
		case "suspend", "resume":
			if ev.CPU != nil {
				cw.instant(fmt.Sprintf("%s %s", ev.Kind, label(ev.PID)), "ctrl", "t", int64(ev.T), 0, *ev.CPU, nil)
			}
		case "target":
			tgt := -1
			if ev.Target != nil {
				tgt = *ev.Target
			}
			cw.instant(fmt.Sprintf("target app %d -> %d", ev.App, tgt), "ctrl", "g", int64(ev.T), 0, 0,
				map[string]any{"app": int64(ev.App), "target": int64(tgt), "scan": ev.Cause})
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Close runs left open by a truncated trace (no end event), then
	// name the process and its per-CPU tracks.
	runs.finish()
	ctl := "off"
	if hdr.Control {
		ctl = "on"
	}
	cw.meta("process_name", 0, 0, fmt.Sprintf("procctl %s seed %d control %s", hdr.Policy, hdr.Seed, ctl))
	for cpu := 0; cpu < hdr.CPUs; cpu++ {
		cw.meta("thread_name", 0, cpu, fmt.Sprintf("cpu %d", cpu))
	}
	return cw.close()
}

// ChromeCheck summarizes a CheckChrome validation pass.
type ChromeCheck struct {
	Events       int // trace events of any phase
	Processes    int // distinct pids
	Flows        int // flow arrows, each with a start and a finish
	CrossProcess int // flows that visit more than one process
}

// CheckChrome validates an export from either source — WriteChrome's or
// WriteDaemonChrome's — without external tooling. The JSON must parse,
// hold at least one event, and keep the trace-event rules both writers
// rely on: every event has a numeric ts, pid and tid; a complete slice
// ("X") has a name and a dur; an instant ("i") is scoped "t", "g" or
// "p"; a flow event ("s", "t", "f") has an id, its steps and finish
// follow its start, its finish binds with bp "e", and every start
// finishes; metadata ("M") is process_name or thread_name; no other
// phase appears. CI asserts CrossProcess > 0 on the daemon export — the
// point of the merged export is arrows that leave the daemon's process.
func CheckChrome(r io.Reader) (*ChromeCheck, error) {
	var doc struct {
		TraceEvents []struct {
			Name, Ph, S, ID, BP string
			Ts, Dur, Pid, Tid   *float64
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("malformed trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace has no events")
	}
	type flowEnds struct {
		finished bool
		pids     map[int]bool
	}
	flows := make(map[string]*flowEnds)
	pids := make(map[int]bool)
	for i, ev := range doc.TraceEvents {
		if ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			return nil, fmt.Errorf("event %d %q: missing numeric ts, pid or tid", i, ev.Name)
		}
		pid := int(*ev.Pid)
		pids[pid] = true
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || ev.Name == "" {
				return nil, fmt.Errorf("event %d: complete slice %q without a name or a dur", i, ev.Name)
			}
		case "i":
			if ev.S != "t" && ev.S != "g" && ev.S != "p" {
				return nil, fmt.Errorf("event %d: instant %q has scope %q, want t, g or p", i, ev.Name, ev.S)
			}
		case "s", "t", "f":
			fl := flows[ev.ID]
			switch {
			case ev.ID == "":
				return nil, fmt.Errorf("event %d: flow event without an id", i)
			case ev.Ph == "s" && fl != nil:
				return nil, fmt.Errorf("event %d: flow %q starts twice", i, ev.ID)
			case ev.Ph == "s":
				fl = &flowEnds{pids: make(map[int]bool)}
				flows[ev.ID] = fl
			case fl == nil || fl.finished:
				return nil, fmt.Errorf("event %d: flow %q has a %q outside its start and finish", i, ev.ID, ev.Ph)
			case ev.Ph == "f" && ev.BP != "e":
				return nil, fmt.Errorf("event %d: flow %q finishes without bp \"e\"", i, ev.ID)
			}
			fl.pids[pid] = true
			fl.finished = ev.Ph == "f"
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				return nil, fmt.Errorf("event %d: unknown metadata %q", i, ev.Name)
			}
		default:
			return nil, fmt.Errorf("event %d: unknown phase %q", i, ev.Ph)
		}
	}
	ck := &ChromeCheck{Events: len(doc.TraceEvents), Processes: len(pids)}
	for _, id := range sortedKeys(flows) {
		if !flows[id].finished {
			return nil, fmt.Errorf("flow %q starts but never finishes", id)
		}
		ck.Flows++
		if len(flows[id].pids) > 1 {
			ck.CrossProcess++
		}
	}
	return ck, nil
}
