package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"procctl/internal/flight"
)

// Daemon-side export: merge the daemon's flight ring, any number of
// client flight rings, and journal-derived events into one Chrome
// trace-event timeline. Unlike WriteChrome (virtual-time sim traces),
// every timestamp here is wall-clock Unix microseconds from the same
// machine, so streams from different processes land on one comparable
// axis; the export subtracts the earliest timestamp so the timeline
// starts near zero.
//
// Layout: pid 0 is the daemon (tid 0 = control-plane instants, tid 1 =
// rebalance spans and epoch convergence), pid 1..n are the client
// processes, one per timeline. Epoch provenance becomes flow arrows:
// for each (epoch, member) the daemon's target decision starts a flow
// that steps through the client's apply and settle events and finishes
// at the daemon's converge event — decision → notify → apply → settle
// rendered as arrows across process boundaries in ui.perfetto.dev.

// ClientTimeline is one client process's flight-ring dump.
type ClientTimeline struct {
	Name   string // track label; member name when known
	Events []flight.Event
}

// DaemonTimeline is the full input of a merged daemon export.
type DaemonTimeline struct {
	Daemon  []flight.Event // daemon flight ring, journal events merged in
	Clients []ClientTimeline
}

// ReadFlightJSONL decodes one flight.Event per line, the format
// `procctl-top -events -json` and `-hold-events` write. Blank lines are
// skipped; any malformed line fails the read (dumps are machine-written).
func ReadFlightJSONL(r io.Reader) ([]flight.Event, error) {
	var out []flight.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev flight.Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("flight jsonl line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeFlightEvents unions two event streams, dropping duplicates (the
// journal persists a subset of what the flight ring holds, so merging
// the two must not double-draw events) and returning the result in
// timestamp order. Sequence numbers are ignored for identity: the ring
// and the journal each number the same event their own way.
func MergeFlightEvents(a, b []flight.Event) []flight.Event {
	seen := make(map[flight.Event]bool, len(a)+len(b))
	out := make([]flight.Event, 0, len(a)+len(b))
	for _, evs := range [2][]flight.Event{a, b} {
		for _, ev := range evs {
			k := ev
			k.Seq = 0
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// flowAnchor is one hop of an epoch's propagation chain.
type flowAnchor struct {
	phase int // 0 decision, 1 apply, 2 settle, 3 converge
	ts    int64
	pid   int
	tid   int
	name  string
}

// daemon track ids.
const (
	tidControl   = 0
	tidRebalance = 1
)

// WriteDaemonChrome renders the merged timeline as Chrome trace-event
// JSON. The output opens directly in ui.perfetto.dev.
func WriteDaemonChrome(tl DaemonTimeline, w io.Writer) error {
	t0 := int64(0)
	for _, ev := range tl.Daemon {
		if t0 == 0 || (ev.At > 0 && ev.At < t0) {
			t0 = ev.At
		}
	}
	for _, c := range tl.Clients {
		for _, ev := range c.Events {
			if t0 == 0 || (ev.At > 0 && ev.At < t0) {
				t0 = ev.At
			}
		}
	}

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

	if _, err := fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}

	// chains collects the per-(epoch, member) propagation anchors in
	// pass one; pass two draws the arrows. Epoch 0 events (legacy pushes
	// and degraded-mode decay) carry no provenance and join no chain.
	type chainKey struct {
		epoch uint64
		app   string
	}
	chains := make(map[chainKey][]flowAnchor)
	addAnchor := func(epoch uint64, app string, a flowAnchor) {
		if epoch == 0 || app == "" {
			return
		}
		k := chainKey{epoch, app}
		chains[k] = append(chains[k], a)
	}

	argsOf := func(ev flight.Event) map[string]any {
		args := map[string]any{"seq": ev.Seq, "a": ev.A, "b": ev.B}
		if ev.Epoch != 0 {
			args["epoch"] = ev.Epoch
		}
		if ev.App != "" {
			args["app"] = ev.App
		}
		return args
	}

	for _, ev := range tl.Daemon {
		ts := ev.At - t0
		switch ev.Kind {
		case flight.KindRebalance:
			dur := ev.A
			if dur < 1 {
				dur = 1
			}
			emit(chromeEvent{Name: fmt.Sprintf("rebalance #%d", ev.Epoch), Cat: "epoch", Ph: "X",
				Ts: ts - dur, Dur: &dur, Pid: 0, Tid: tidRebalance, Args: argsOf(ev)})
		case flight.KindTarget:
			name := fmt.Sprintf("target %s -> %d", ev.App, ev.A)
			emit(chromeEvent{Name: name, Cat: "ctrl", Ph: "i", Ts: ts, Pid: 0, Tid: tidControl, S: "p", Args: argsOf(ev)})
			addAnchor(ev.Epoch, ev.App, flowAnchor{phase: 0, ts: ts, pid: 0, tid: tidControl, name: name})
		case flight.KindConverge:
			name := fmt.Sprintf("converge #%d", ev.Epoch)
			emit(chromeEvent{Name: name, Cat: "epoch", Ph: "i", Ts: ts, Pid: 0, Tid: tidRebalance, S: "p", Args: argsOf(ev)})
			addAnchor(ev.Epoch, ev.App, flowAnchor{phase: 3, ts: ts, pid: 0, tid: tidRebalance, name: name})
		default:
			emit(chromeEvent{Name: ev.Kind + label(ev.App), Cat: "ctrl", Ph: "i",
				Ts: ts, Pid: 0, Tid: tidControl, S: "p", Args: argsOf(ev)})
		}
	}

	for ci, c := range tl.Clients {
		pid := ci + 1
		for _, ev := range c.Events {
			ts := ev.At - t0
			switch ev.Kind {
			case flight.KindApply:
				name := fmt.Sprintf("apply %d", ev.A)
				emit(chromeEvent{Name: name, Cat: "client", Ph: "i", Ts: ts, Pid: pid, Tid: 0, S: "p", Args: argsOf(ev)})
				addAnchor(ev.Epoch, ev.App, flowAnchor{phase: 1, ts: ts, pid: pid, tid: 0, name: name})
			case flight.KindSettle:
				name := fmt.Sprintf("settle %d", ev.A)
				emit(chromeEvent{Name: name, Cat: "client", Ph: "i", Ts: ts, Pid: pid, Tid: 0, S: "p", Args: argsOf(ev)})
				addAnchor(ev.Epoch, ev.App, flowAnchor{phase: 2, ts: ts, pid: pid, tid: 0, name: name})
			default:
				emit(chromeEvent{Name: ev.Kind + label(ev.App), Cat: "client", Ph: "i",
					Ts: ts, Pid: pid, Tid: 0, S: "p", Args: argsOf(ev)})
			}
		}
	}

	// Draw the provenance arrows: one flow per (epoch, member) chain
	// with at least two hops, ordered decision → apply → settle →
	// converge (timestamp breaks ties within a phase). Deterministic
	// output: chains emit in (epoch, app) order.
	keys := make([]chainKey, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].app < keys[j].app
	})
	for _, k := range keys {
		anchors := chains[k]
		sort.SliceStable(anchors, func(i, j int) bool {
			if anchors[i].phase != anchors[j].phase {
				return anchors[i].phase < anchors[j].phase
			}
			return anchors[i].ts < anchors[j].ts
		})
		if len(anchors) < 2 {
			continue
		}
		id := fmt.Sprintf("epoch%d:%s", k.epoch, k.app)
		for i, a := range anchors {
			ph := "t"
			bp := ""
			switch i {
			case 0:
				ph = "s"
			case len(anchors) - 1:
				ph = "f"
				bp = "e"
			}
			emit(chromeEvent{Name: id, Cat: "epoch-flow", Ph: ph, BP: bp,
				Ts: a.ts, Pid: a.pid, Tid: a.tid, ID: id})
		}
	}

	emit(chromeEvent{Name: "process_name", Ph: "M", Pid: 0, Tid: 0, Args: map[string]any{"name": "procctld"}})
	emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: tidControl, Args: map[string]any{"name": "control"}})
	emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: tidRebalance, Args: map[string]any{"name": "epochs"}})
	for ci, c := range tl.Clients {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("client %d", ci+1)
		}
		emit(chromeEvent{Name: "process_name", Ph: "M", Pid: ci + 1, Tid: 0, Args: map[string]any{"name": name}})
	}
	if werr != nil {
		return werr
	}
	_, err := fmt.Fprint(w, "\n]}\n")
	return err
}

// label renders an optional app suffix for instant-event names.
func label(app string) string {
	if app == "" {
		return ""
	}
	return " " + app
}

// DaemonCheck summarizes a CheckDaemonChrome validation pass.
type DaemonCheck struct {
	Events       int // trace events of any phase
	Processes    int // distinct pids
	Flows        int // flow chains with both a start and a finish
	CrossProcess int // flows that visit more than one process
}

// CheckDaemonChrome validates an exported timeline without external
// tooling: the JSON must parse, hold at least one event, and every flow
// id that starts must finish. CI asserts CrossProcess > 0 — the whole
// point of the merged export is arrows that leave the daemon's process.
func CheckDaemonChrome(r io.Reader) (*DaemonCheck, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("malformed trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace has no events")
	}
	ck := &DaemonCheck{}
	pids := make(map[int]bool)
	type flowEnds struct {
		started, finished bool
		pids              map[int]bool
	}
	flows := make(map[string]*flowEnds)
	for _, ev := range doc.TraceEvents {
		ck.Events++
		pids[ev.Pid] = true
		switch ev.Ph {
		case "s", "t", "f":
			fl := flows[ev.ID]
			if fl == nil {
				fl = &flowEnds{pids: make(map[int]bool)}
				flows[ev.ID] = fl
			}
			fl.pids[ev.Pid] = true
			if ev.Ph == "s" {
				fl.started = true
			}
			if ev.Ph == "f" {
				fl.finished = true
			}
		}
	}
	ck.Processes = len(pids)
	ids := make([]string, 0, len(flows))
	for id := range flows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fl := flows[id]
		if fl.started != fl.finished {
			return nil, fmt.Errorf("flow %q has a start without a finish (or vice versa)", id)
		}
		ck.Flows++
		if len(fl.pids) > 1 {
			ck.CrossProcess++
		}
	}
	return ck, nil
}
