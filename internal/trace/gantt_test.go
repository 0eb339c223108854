package trace

import (
	"strings"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

func ganttKernel(ncpu int) *kernel.Kernel {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: ncpu})
	return kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{
		Quantum: 50 * sim.Millisecond, QuantumJitter: -1,
	})
}

func TestGanttRecordsSegments(t *testing.T) {
	k := ganttKernel(1)
	g := NewGantt(k)
	k.SpawnResumable("a", 1, 0, kernel.Script(kernel.Compute(30*sim.Millisecond)))
	k.SpawnResumable("b", 2, 0, kernel.Script(kernel.Compute(30*sim.Millisecond)))
	k.Engine().RunUntilIdle()
	g.Close()
	if n := len(g.segs[0]); n != 2 {
		t.Fatalf("segments = %d, want 2", n)
	}
	// a ran [0,30ms), b ran [30,60ms).
	if got := g.glyphAt(0, sim.Time(10*sim.Millisecond)); got != 'A' {
		t.Errorf("glyph at 10ms = %c, want A", got)
	}
	if got := g.glyphAt(0, sim.Time(45*sim.Millisecond)); got != 'B' {
		t.Errorf("glyph at 45ms = %c, want B", got)
	}
	if got := g.glyphAt(0, sim.Time(200*sim.Millisecond)); got != '.' {
		t.Errorf("glyph after exit = %c, want idle", got)
	}
}

func TestGanttRender(t *testing.T) {
	k := ganttKernel(2)
	g := NewGantt(k)
	k.SpawnResumable("a", 1, 0, kernel.Script(kernel.Compute(100*sim.Millisecond)))
	k.SpawnResumable("bg", kernel.AppNone, 0, kernel.Script(kernel.Compute(50*sim.Millisecond)))
	k.Engine().RunUntilIdle()
	g.Close()
	out := g.Render(0, sim.Time(100*sim.Millisecond), 20)
	if !strings.Contains(out, "cpu0") || !strings.Contains(out, "cpu1") {
		t.Fatalf("rows missing:\n%s", out)
	}
	if !strings.Contains(out, "A") {
		t.Errorf("application glyph missing:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("uncontrolled glyph missing:\n%s", out)
	}
	if g.Render(10, 10, 5) != "" {
		t.Error("empty window should render empty")
	}
}

// TestGanttLeavesSleepIdle: a process that sleeps between two compute
// legs leaves its CPU idle in between, as two segments.
func TestGanttLeavesSleepIdle(t *testing.T) {
	k := ganttKernel(1)
	g := NewGantt(k)
	k.SpawnResumable("a", 1, 0, kernel.Script(
		kernel.Compute(25*sim.Millisecond),
		kernel.SleepFor(50*sim.Millisecond),
		kernel.Compute(25*sim.Millisecond),
	))
	k.Engine().RunUntilIdle()
	g.Close()
	if n := len(g.segs[0]); n != 2 {
		t.Fatalf("segments = %d, want 2", n)
	}
	for _, c := range []struct {
		at   sim.Duration
		want byte
	}{{10 * sim.Millisecond, 'A'}, {50 * sim.Millisecond, '.'}, {90 * sim.Millisecond, 'A'}} {
		if got := g.glyphAt(0, sim.Time(c.at)); got != c.want {
			t.Errorf("glyph at %v = %c, want %c", c.at, got, c.want)
		}
	}
}

func TestGanttChainsHooks(t *testing.T) {
	k := ganttKernel(1)
	calls := 0
	k.OnStateChange = func(p *kernel.Process, old, next kernel.ProcState) { calls++ }
	NewGantt(k)
	k.SpawnResumable("a", 1, 0, kernel.Script(kernel.Compute(sim.Millisecond)))
	k.Engine().RunUntilIdle()
	if calls == 0 {
		t.Error("previous OnStateChange hook was clobbered")
	}
}

func TestGanttGlyphs(t *testing.T) {
	if appGlyph(kernel.AppNone) != '*' || appGlyph(1) != 'A' || appGlyph(26) != 'Z' || appGlyph(27) != '#' {
		t.Error("glyph mapping wrong")
	}
}
