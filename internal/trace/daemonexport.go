package trace

import (
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
	flowHop
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
	cw := openChrome(w)

	// chains collects the per-(epoch, member) propagation anchors while
	// the events are drawn; the arrows follow. Epoch 0 events (legacy
	// pushes and degraded-mode decay) carry no provenance and join no chain.
	type chainKey struct {
		epoch uint64
		app   string
	}
	chains := make(map[chainKey][]flowAnchor)
	addAnchor := func(ev flight.Event, phase int, pid, tid int) {
		if ev.Epoch == 0 || ev.App == "" {
			return
		}
		k := chainKey{ev.Epoch, ev.App}
		chains[k] = append(chains[k], flowAnchor{phase, flowHop{ev.At - t0, pid, tid}})
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
			dur := max(ev.A, 1)
			cw.slice(fmt.Sprintf("rebalance #%d", ev.Epoch), "epoch", ts-dur, dur, 0, tidRebalance, argsOf(ev))
		case flight.KindTarget:
			cw.instant(fmt.Sprintf("target %s -> %d", ev.App, ev.A), "ctrl", "p", ts, 0, tidControl, argsOf(ev))
			addAnchor(ev, 0, 0, tidControl)
		case flight.KindConverge:
			cw.instant(fmt.Sprintf("converge #%d", ev.Epoch), "epoch", "p", ts, 0, tidRebalance, argsOf(ev))
			addAnchor(ev, 3, 0, tidRebalance)
		default:
			cw.instant(ev.Kind+label(ev.App), "ctrl", "p", ts, 0, tidControl, argsOf(ev))
		}
	}
	for ci, c := range tl.Clients {
		pid := ci + 1
		for _, ev := range c.Events {
			ts := ev.At - t0
			switch ev.Kind {
			case flight.KindApply:
				cw.instant(fmt.Sprintf("apply %d", ev.A), "client", "p", ts, pid, 0, argsOf(ev))
				addAnchor(ev, 1, pid, 0)
			case flight.KindSettle:
				cw.instant(fmt.Sprintf("settle %d", ev.A), "client", "p", ts, pid, 0, argsOf(ev))
				addAnchor(ev, 2, pid, 0)
			default:
				cw.instant(ev.Kind+label(ev.App), "client", "p", ts, pid, 0, argsOf(ev))
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
		if len(anchors) < 2 {
			continue
		}
		sort.SliceStable(anchors, func(i, j int) bool {
			if anchors[i].phase != anchors[j].phase {
				return anchors[i].phase < anchors[j].phase
			}
			return anchors[i].ts < anchors[j].ts
		})
		hops := make([]flowHop, len(anchors))
		for i, a := range anchors {
			hops[i] = a.flowHop
		}
		id := fmt.Sprintf("epoch%d:%s", k.epoch, k.app)
		cw.flow(id, "epoch-flow", id, hops...)
	}

	cw.meta("process_name", 0, 0, "procctld")
	cw.meta("thread_name", 0, tidControl, "control")
	cw.meta("thread_name", 0, tidRebalance, "epochs")
	for ci, c := range tl.Clients {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("client %d", ci+1)
		}
		cw.meta("process_name", ci+1, 0, name)
	}
	return cw.close()
}

// label renders an optional app suffix for instant-event names.
func label(app string) string {
	if app == "" {
		return ""
	}
	return " " + app
}
