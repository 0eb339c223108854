package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"procctl/internal/kernel"
	"procctl/internal/sim"
)

// AppAttribution decomposes one application's virtual time into the
// paper's wasted-cycle categories (Figures 3, 5, 6). The identities
//
//	Running = Useful + SpinPreempted + SpinRunnable + Switch + Reload
//	Total   = Running + ReadyWait + Suspended + OtherBlocked
//
// hold exactly: every microsecond of every process's span lands in
// exactly one category. The spin categories mirror the kernel's own
// accounting (internal/metrics sim_kernel_spin_micros_total), including
// its treatment of busy-wait legs still open at the recording horizon
// (dropped, matching Kernel.Finalize).
type AppAttribution struct {
	App   kernel.AppID
	Procs int

	// On-CPU decomposition.
	Useful        sim.Duration // computing with the lock either held or free
	SpinPreempted sim.Duration // busy-waiting on a lock whose holder is NOT running
	SpinRunnable  sim.Duration // busy-waiting on a lock whose holder is running
	Switch        sim.Duration // context-switch penalty charged by dispatches
	Reload        sim.Duration // cache-reload penalty charged by dispatches

	// Off-CPU decomposition.
	ReadyWait    sim.Duration // runnable, waiting for a processor
	Suspended    sim.Duration // blocked by process control at a safe point
	OtherBlocked sim.Duration // blocked for any other reason (sleeps, stalls)

	Running sim.Duration // total on-CPU time
	Total   sim.Duration // sum of per-process spans (spawn/first-seen to exit/end)
}

// Attribution is the wasted-cycle analysis of a recorded trace.
type Attribution struct {
	Header *Header
	Events int64
	End    sim.Time
	Apps   []AppAttribution // sorted by AppID (AppNone first)
}

// spinLeg is one busy-wait episode of a running process: opened by a
// contend event, closed by the matching acquire or by the spinner
// leaving Running. Accruals stay pending until the leg closes; a leg
// still open at the "end" event is discarded — exactly the kernel's
// rule, which credits SpinTime at lock grant and preemption but not at
// Finalize.
type spinLeg struct {
	lock  string
	pendP sim.Duration // accrued while the holder was not running
	pendR sim.Duration // accrued while the holder was running
}

// procAttr is the per-process residency state machine of ReadAttribution.
type procAttr struct {
	app       kernel.AppID
	state     string // "running", "runnable", "blocked", "" once exited
	since     sim.Time
	suspended bool // the current/next blocked interval is a control suspension
	leg       *spinLeg
}

// ReadAttribution parses a v2 JSONL trace and attributes every
// process's time to a wasted-cycle category. It requires the versioned
// header: attribution depends on lock and overhead events that v1
// traces do not carry, so a headerless trace fails loudly. A trace
// truncated mid-run is fine: intervals still open at its last event
// are dropped.
//
// The attribution is exact, not sampled: at every event the elapsed
// time since the previous event is accrued to each spinning process's
// open leg, categorized by the lock holder's run state during that
// slice (the holder's state can change mid-spin; each slice is
// categorized by the state in force while it elapsed). An interval
// still open at the "end" event is credited up to it, as the kernel's
// Finalize credits the same trailing CPU time.
func ReadAttribution(rd io.Reader) (*Attribution, error) {
	procs := make(map[kernel.PID]*procAttr)
	apps := make(map[kernel.AppID]*AppAttribution)
	att := &Attribution{}
	holders := make(map[string]kernel.PID) // lock name -> current holder
	var spinning []kernel.PID              // procs with an open leg, in open order
	var lastCut sim.Time

	get := func(app kernel.AppID) *AppAttribution {
		a, ok := apps[app]
		if !ok {
			a = &AppAttribution{App: app}
			apps[app] = a
		}
		return a
	}
	// cut accrues the slice [lastCut, now) to every open spin leg.
	cut := func(now sim.Time) {
		dt := now.Sub(lastCut)
		lastCut = now
		if dt <= 0 {
			return
		}
		for _, pid := range spinning {
			ps := procs[pid]
			running := false
			if h, ok := holders[ps.leg.lock]; ok {
				if hs := procs[h]; hs != nil && hs.state == "running" {
					running = true
				}
			}
			if running {
				ps.leg.pendR += dt
			} else {
				ps.leg.pendP += dt
			}
		}
	}
	// closeLeg commits (or, at the horizon, discards) pid's open leg.
	closeLeg := func(pid kernel.PID, commit bool) {
		ps := procs[pid]
		if ps == nil || ps.leg == nil {
			return
		}
		if commit {
			a := get(ps.app)
			a.SpinPreempted += ps.leg.pendP
			a.SpinRunnable += ps.leg.pendR
		}
		ps.leg = nil
		for i, q := range spinning {
			if q == pid {
				spinning = append(spinning[:i], spinning[i+1:]...)
				break
			}
		}
	}
	// closeInterval credits pid's current residency interval up to now.
	closeInterval := func(pid kernel.PID, now sim.Time) {
		ps := procs[pid]
		if ps == nil || ps.state == "" {
			return
		}
		a := get(ps.app)
		d := now.Sub(ps.since)
		switch ps.state {
		case "running":
			a.Running += d
		case "runnable":
			a.ReadyWait += d
		case "blocked":
			if ps.suspended {
				a.Suspended += d
				ps.suspended = false
			} else {
				a.OtherBlocked += d
			}
		}
		a.Total += d
		ps.since = now
	}

	hdr, err := readTrace(rd, func(ev Event) error {
		att.Events++
		if ev.T > att.End {
			att.End = ev.T
		}
		cut(ev.T)
		switch ev.Kind {
		case "spawn":
			if _, ok := procs[ev.PID]; !ok {
				procs[ev.PID] = &procAttr{app: ev.App, state: "runnable", since: ev.T}
			}
			get(ev.App).Procs++
		case "state":
			ps, ok := procs[ev.PID]
			if !ok {
				// The embryo->runnable transition precedes the spawn
				// event; a trace that began mid-run starts a process at
				// its first transition.
				procs[ev.PID] = &procAttr{app: ev.App, state: ev.To, since: ev.T}
				break
			}
			if ps.state == "running" && ev.To != "running" {
				// Leaving the CPU closes any busy-wait leg; the kernel
				// credits the same slice at preemption/stall/kill time.
				closeLeg(ev.PID, true)
			}
			closeInterval(ev.PID, ev.T)
			if ev.To == "exited" {
				ps.state = ""
			} else {
				ps.state = ev.To
			}
		case "exit":
			closeInterval(ev.PID, ev.T)
			if ps := procs[ev.PID]; ps != nil {
				ps.state = ""
			}
		case "contend":
			closeLeg(ev.PID, true) // defensive: one open leg per process
			if ps := procs[ev.PID]; ps != nil {
				ps.leg = &spinLeg{lock: ev.Lock}
				spinning = append(spinning, ev.PID)
			}
		case "acquire":
			closeLeg(ev.PID, true)
			holders[ev.Lock] = ev.PID
		case "release":
			delete(holders, ev.Lock)
		case "overhead":
			if ev.App != 0 || ev.PID != 0 {
				a := get(ev.App)
				a.Switch += ev.SW
				a.Reload += ev.RL
			}
		case "suspend":
			if ps := procs[ev.PID]; ps != nil {
				ps.suspended = true
			}
		case "end":
			// Horizon: close every open interval and discard open spin
			// legs (Finalize does not credit them).
			for _, pid := range sortedKeys(procs) {
				closeLeg(pid, false)
				closeInterval(pid, ev.T)
			}
		case "dispatch", "task_start", "task_done", "barrier_wait",
			"resume", "poll", "target":
			// Carried for timelines and causal links; residency does
			// not need them.
		default:
			return fmt.Errorf("unknown event kind %q", ev.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	att.Header = hdr
	for _, app := range sortedKeys(apps) {
		a := *apps[app]
		a.Useful = a.Running - a.SpinPreempted - a.SpinRunnable - a.Switch - a.Reload
		att.Apps = append(att.Apps, a)
	}
	return att, nil
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Render prints the attribution as a table, one row per application.
func (a *Attribution) Render() string {
	h, ctl := a.Header, "off"
	if h.Control {
		ctl = "on"
	}
	t := NewTable(fmt.Sprintf("Wasted-cycle attribution: %v on %d cpus (policy %s, seed %d, control %s)",
		a.End, h.CPUs, h.Policy, h.Seed, ctl),
		"app", "total", "useful", "spin-preempt", "spin-run", "switch", "reload",
		"ready-wait", "suspended", "blocked")
	for _, app := range a.Apps {
		label := fmt.Sprintf("app %d", app.App)
		if app.App == kernel.AppNone {
			label = "system"
		}
		t.Row(label, app.Total, app.Useful, app.SpinPreempted, app.SpinRunnable,
			app.Switch, app.Reload, app.ReadyWait, app.Suspended, app.OtherBlocked)
	}
	return t.String()
}
