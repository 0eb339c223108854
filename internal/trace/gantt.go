package trace

import (
	"fmt"
	"strings"

	"procctl/internal/kernel"
	"procctl/internal/sim"
)

// gseg is one contiguous run of a process on a CPU.
type gseg struct {
	app        kernel.AppID
	start, end sim.Time
}

// Gantt records per-processor execution segments and renders them as a
// text timeline — one row per CPU, one letter per application. It is
// the quickest way to *see* a scheduling policy: coscheduling shows as
// vertical stripes, partitioning as horizontal bands, uncontrolled
// timesharing as confetti.
type Gantt struct {
	k    *kernel.Kernel
	segs [][]gseg // per CPU, in time order
	open []gseg   // currently running segment per CPU (end unset)
	live []bool
}

// NewGantt installs a recorder on k. It chains any OnStateChange hook
// already installed, so it composes with other observers.
func NewGantt(k *kernel.Kernel) *Gantt {
	g := &Gantt{
		k:    k,
		segs: make([][]gseg, k.NumCPU()),
		open: make([]gseg, k.NumCPU()),
		live: make([]bool, k.NumCPU()),
	}
	prev := k.OnStateChange
	k.OnStateChange = func(p *kernel.Process, old, next kernel.ProcState) {
		if prev != nil {
			prev(p, old, next)
		}
		g.observe(p, old, next)
	}
	return g
}

func (g *Gantt) observe(p *kernel.Process, old, next kernel.ProcState) {
	now := g.k.Now()
	cpu := p.LastCPU()
	if cpu < 0 || cpu >= len(g.segs) {
		return
	}
	if next == kernel.Running {
		g.open[cpu] = gseg{app: p.App(), start: now}
		g.live[cpu] = true
		return
	}
	if old == kernel.Running && g.live[cpu] {
		s := g.open[cpu]
		s.end = now
		g.live[cpu] = false
		if s.end > s.start {
			g.segs[cpu] = append(g.segs[cpu], s)
		}
	}
}

// Close finalizes any still-open segments at the current time. Call it
// before rendering a window that extends to "now".
func (g *Gantt) Close() {
	now := g.k.Now()
	for cpu := range g.open {
		if g.live[cpu] {
			s := g.open[cpu]
			s.end = now
			if s.end > s.start {
				g.segs[cpu] = append(g.segs[cpu], s)
			}
			g.live[cpu] = false
		}
	}
}

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

// glyphAt returns the glyph for CPU cpu at instant t.
func (g *Gantt) glyphAt(cpu int, t sim.Time) byte {
	segs := g.segs[cpu]
	// Binary search the first segment ending after t.
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(segs) && segs[lo].start <= t {
		return appGlyph(segs[lo].app)
	}
	return '.'
}

// Render draws the [from, to) window, width columns wide. Each cell
// samples the instant at the middle of its column.
func (g *Gantt) Render(from, to sim.Time, width int) string {
	if width < 1 {
		width = 80
	}
	if to <= from {
		return ""
	}
	span := to.Sub(from)
	var b strings.Builder
	fmt.Fprintf(&b, "CPU timeline %v .. %v  (column = %v)\n", from, to, span/sim.Duration(width))
	for cpu := range g.segs {
		fmt.Fprintf(&b, "cpu%-2d |", cpu)
		for col := 0; col < width; col++ {
			t := from.Add(span * sim.Duration(2*col+1) / sim.Duration(2*width))
			b.WriteByte(g.glyphAt(cpu, t))
		}
		b.WriteString("|\n")
	}
	b.WriteString("A.. = applications, * = uncontrolled, . = idle\n")
	return b.String()
}
