package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"procctl/internal/kernel"
	"procctl/internal/sim"
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

// chromeSlice is an in-progress occupancy of a CPU by one process.
type chromeSlice struct {
	cpu   int
	since sim.Time
}

// WriteChrome converts a v2 JSONL trace into Chrome trace-event JSON:
// one track (thread) per CPU under a single "procctl" process, a
// complete slice for every interval a process occupies a CPU, instant
// events for control suspensions/resumes and server target decisions,
// and flow arrows from each lock-contention event to the release that
// freed the lock. The output opens directly in ui.perfetto.dev.
//
// Like ReadAttribution, it requires the versioned header and fails
// loudly on legacy v1 traces.
func WriteChrome(rd io.Reader, w io.Writer) error {
	type pendingFlow struct {
		ts  sim.Time
		cpu int
	}
	names := make(map[kernel.PID]string)
	apps := make(map[kernel.PID]kernel.AppID)
	open := make(map[kernel.PID]chromeSlice)
	pend := make(map[string][]pendingFlow)
	flowSeq := 0

	first := true
	var werr error
	emit := func(ev chromeEvent) {
		if werr != nil {
			return
		}
		b, err := json.Marshal(ev)
		if err != nil {
			werr = err
			return
		}
		sep := ",\n"
		if first {
			sep = "\n"
			first = false
		}
		_, werr = fmt.Fprintf(w, "%s%s", sep, b)
	}
	label := func(pid kernel.PID) string {
		if n, ok := names[pid]; ok && n != "" {
			return n
		}
		return fmt.Sprintf("pid %d", pid)
	}
	closeSlice := func(pid kernel.PID, now sim.Time) {
		sl, ok := open[pid]
		if !ok {
			return
		}
		delete(open, pid)
		dur := int64(now.Sub(sl.since))
		emit(chromeEvent{
			Name: label(pid), Cat: "proc", Ph: "X",
			Ts: int64(sl.since), Dur: &dur, Pid: 0, Tid: sl.cpu,
			Args: map[string]any{"pid": int64(pid), "app": int64(apps[pid])},
		})
	}
	openPIDs := func() []kernel.PID {
		out := make([]kernel.PID, 0, len(open))
		for pid := range open {
			out = append(out, pid)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	if _, err := fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}

	var end sim.Time
	hdr, err := readTrace(rd, func(ev Event) error {
		if ev.T > end {
			end = ev.T
		}
		switch ev.Kind {
		case "spawn":
			names[ev.PID] = ev.Name
			apps[ev.PID] = ev.App
		case "state":
			if ev.App != 0 {
				apps[ev.PID] = ev.App
			}
			if ev.From == "running" {
				closeSlice(ev.PID, ev.T)
			}
			if ev.To == "running" && ev.CPU != nil {
				open[ev.PID] = chromeSlice{cpu: *ev.CPU, since: ev.T}
			}
		case "exit":
			closeSlice(ev.PID, ev.T)
		case "contend":
			if ev.CPU != nil {
				pend[ev.Lock] = append(pend[ev.Lock], pendingFlow{ts: ev.T, cpu: *ev.CPU})
			}
		case "release":
			waiters := pend[ev.Lock]
			delete(pend, ev.Lock)
			if ev.CPU == nil {
				break // forced release of an off-CPU holder: no anchor
			}
			for _, pf := range waiters {
				flowSeq++
				id := fmt.Sprintf("%s#%d", ev.Lock, flowSeq)
				emit(chromeEvent{Name: ev.Lock, Cat: "lock", Ph: "s",
					Ts: int64(pf.ts), Pid: 0, Tid: pf.cpu, ID: id})
				emit(chromeEvent{Name: ev.Lock, Cat: "lock", Ph: "f", BP: "e",
					Ts: int64(ev.T), Pid: 0, Tid: *ev.CPU, ID: id})
			}
		case "suspend", "resume":
			if ev.CPU != nil {
				emit(chromeEvent{
					Name: fmt.Sprintf("%s %s", ev.Kind, label(ev.PID)),
					Cat:  "ctrl", Ph: "i", Ts: int64(ev.T), Pid: 0, Tid: *ev.CPU, S: "t",
				})
			}
		case "target":
			tgt := -1
			if ev.Target != nil {
				tgt = *ev.Target
			}
			emit(chromeEvent{
				Name: fmt.Sprintf("target app %d -> %d", ev.App, tgt),
				Cat:  "ctrl", Ph: "i", Ts: int64(ev.T), Pid: 0, Tid: 0, S: "g",
				Args: map[string]any{"app": int64(ev.App), "target": int64(tgt), "scan": ev.Cause},
			})
		case "end":
			for _, pid := range openPIDs() {
				closeSlice(pid, ev.T)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Close slices left open by a truncated trace (no end event), then
	// name the process and its per-CPU tracks. Metadata events may
	// appear anywhere in the array; viewers apply them globally.
	for _, pid := range openPIDs() {
		closeSlice(pid, end)
	}
	ctl := "off"
	if hdr.Control {
		ctl = "on"
	}
	emit(chromeEvent{Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": fmt.Sprintf("procctl %s seed %d control %s", hdr.Policy, hdr.Seed, ctl)}})
	for cpu := 0; cpu < hdr.CPUs; cpu++ {
		emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: cpu,
			Args: map[string]any{"name": fmt.Sprintf("cpu %d", cpu)}})
	}
	if werr != nil {
		return werr
	}
	_, err = fmt.Fprint(w, "\n]}\n")
	return err
}
