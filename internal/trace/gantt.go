package trace

import (
	"fmt"
	"io"
	"strings"

	"procctl/internal/kernel"
	"procctl/internal/sim"
)

// cpuRun is one contiguous run of a process on a CPU.
type cpuRun struct {
	pid        kernel.PID
	app        kernel.AppID
	cpu        int
	start, end sim.Time
}

// runFold folds a trace's state, exit and end events into the runs
// processes made on CPUs: a run opens when a process enters running
// and closes when it leaves running or exits, or when the trace ends.
// WriteChrome draws each run as a slice and WriteGantt as a bar, so
// both read the one timeline. done is called as each run closes.
type runFold struct {
	open map[kernel.PID]cpuRun
	end  sim.Time // the latest instant seen
	done func(cpuRun)
}

func newRunFold(done func(cpuRun)) *runFold {
	return &runFold{open: make(map[kernel.PID]cpuRun), done: done}
}

// step advances the fold past one event.
func (f *runFold) step(ev Event) {
	if ev.T > f.end {
		f.end = ev.T
	}
	switch ev.Kind {
	case "state":
		if ev.From == "running" {
			f.close(ev.PID, ev.T)
		}
		if ev.To == "running" && ev.CPU != nil {
			f.open[ev.PID] = cpuRun{pid: ev.PID, app: ev.App, cpu: *ev.CPU, start: ev.T}
		}
	case "exit":
		f.close(ev.PID, ev.T)
	case "end":
		f.finish()
	}
}

func (f *runFold) close(pid kernel.PID, now sim.Time) {
	r, ok := f.open[pid]
	if !ok {
		return
	}
	delete(f.open, pid)
	r.end = now
	f.done(r)
}

// finish closes every open run, in PID order, at the latest instant
// seen: the end event's, or a truncated trace's last.
func (f *runFold) finish() {
	for _, pid := range sortedKeys(f.open) {
		f.close(pid, f.end)
	}
}

// The Gantt timeline is ganttWidth columns wide; each cell shows the
// run in force at the middle of its column.
const ganttWidth = 96

// appGlyph maps an application to a timeline letter: A-Z for controlled
// applications, '*' for uncontrollable processes, '.' for idle.
func appGlyph(app kernel.AppID) byte {
	if app == kernel.AppNone {
		return '*'
	}
	if app >= 1 && app <= 26 {
		return byte('A' + int(app) - 1)
	}
	return '#'
}

// timeline is a trace's runs by CPU, each CPU's in time order.
type timeline struct {
	hdr  *Header
	end  sim.Time
	cpus [][]cpuRun
}

// readTimeline reads a trace's runs. A run on a CPU the header does not
// count is an error.
func readTimeline(rd io.Reader) (*timeline, error) {
	var runs []cpuRun
	fold := newRunFold(func(r cpuRun) { runs = append(runs, r) })
	hdr, err := readTrace(rd, func(ev Event) error {
		fold.step(ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fold.finish()
	tl := &timeline{hdr: hdr, end: fold.end, cpus: make([][]cpuRun, max(hdr.CPUs, 0))}
	for _, r := range runs {
		if r.cpu < 0 || r.cpu >= len(tl.cpus) {
			return nil, fmt.Errorf("trace: pid %d runs on cpu %d, the header counts %d", r.pid, r.cpu, hdr.CPUs)
		}
		tl.cpus[r.cpu] = append(tl.cpus[r.cpu], r)
	}
	return tl, nil
}

// glyphAt returns the glyph for CPU cpu at instant t.
func (tl *timeline) glyphAt(cpu int, t sim.Time) byte {
	runs := tl.cpus[cpu]
	// Binary search the first run ending after t.
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := (lo + hi) / 2
		if runs[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(runs) && runs[lo].start <= t {
		return appGlyph(runs[lo].app)
	}
	return '.'
}

// render draws the whole trace, [0, end), one row per CPU. A trace
// that spans no time draws the title alone.
func (tl *timeline) render() string {
	ctl := "no process control"
	if tl.hdr.Control {
		ctl = "process control on"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Policy %s (%s), seed %d, on %d CPUs\n", tl.hdr.Policy, ctl, tl.hdr.Seed, tl.hdr.CPUs)
	if tl.end <= 0 {
		return b.String()
	}
	span := tl.end.Sub(0)
	fmt.Fprintf(&b, "CPU timeline %v .. %v  (column = %v)\n", sim.Time(0), tl.end, span/ganttWidth)
	for cpu := range tl.cpus {
		fmt.Fprintf(&b, "cpu%-2d |", cpu)
		for col := 0; col < ganttWidth; col++ {
			b.WriteByte(tl.glyphAt(cpu, sim.Time(span*sim.Duration(2*col+1)/(2*ganttWidth))))
		}
		b.WriteString("|\n")
	}
	b.WriteString("A.. = applications, * = uncontrolled, . = idle\n")
	return b.String()
}

// WriteGantt renders a v2 JSONL trace as a text CPU timeline: one row
// per CPU, one letter per application. It is the quickest way to *see*
// a scheduling policy: coscheduling shows as vertical stripes,
// partitioning as horizontal bands, uncontrolled timesharing as
// confetti, and process control as one steady band per application.
func WriteGantt(rd io.Reader, w io.Writer) error {
	tl, err := readTimeline(rd)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, tl.render())
	return err
}
