package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

// ganttTimeline records the processes spawn starts on an ncpu machine
// until they all exit, and reads the recorded trace's timeline.
func ganttTimeline(t *testing.T, ncpu int, spawn func(*kernel.Kernel)) *timeline {
	t.Helper()
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: ncpu})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{
		Quantum: 50 * sim.Millisecond, QuantumJitter: -1,
	})
	var buf bytes.Buffer
	rec := NewRecorder(k, &buf, Meta{Seed: 1})
	spawn(k)
	eng.RunUntilIdle()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tl, err := readTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestGanttRecordsSegments(t *testing.T) {
	tl := ganttTimeline(t, 1, func(k *kernel.Kernel) {
		k.SpawnResumable("a", 1, 0, kernel.Script(kernel.Compute(30*sim.Millisecond)))
		k.SpawnResumable("b", 2, 0, kernel.Script(kernel.Compute(30*sim.Millisecond)))
	})
	if n := len(tl.cpus[0]); n != 2 {
		t.Fatalf("segments = %d, want 2", n)
	}
	// a ran [0,30ms), b ran [30,60ms).
	if got := tl.glyphAt(0, sim.Time(10*sim.Millisecond)); got != 'A' {
		t.Errorf("glyph at 10ms = %c, want A", got)
	}
	if got := tl.glyphAt(0, sim.Time(45*sim.Millisecond)); got != 'B' {
		t.Errorf("glyph at 45ms = %c, want B", got)
	}
	if got := tl.glyphAt(0, sim.Time(200*sim.Millisecond)); got != '.' {
		t.Errorf("glyph after exit = %c, want idle", got)
	}
}

func TestGanttRender(t *testing.T) {
	tl := ganttTimeline(t, 2, func(k *kernel.Kernel) {
		k.SpawnResumable("a", 1, 0, kernel.Script(kernel.Compute(100*sim.Millisecond)))
		k.SpawnResumable("bg", kernel.AppNone, 0, kernel.Script(kernel.Compute(50*sim.Millisecond)))
	})
	// The trace ends at the timeshare policy's 1 s decay tick: a ran
	// for the first 100 ms, bg for the first 50 ms, of 96 columns of
	// 10.4 ms sampled at their middles.
	want := "Policy timeshare (no process control), seed 1, on 2 CPUs\n" +
		"CPU timeline 0.000s .. 1.000s  (column = 10.416ms)\n" +
		"cpu0  |" + strings.Repeat("A", 10) + strings.Repeat(".", 86) + "|\n" +
		"cpu1  |" + strings.Repeat("*", 5) + strings.Repeat(".", 91) + "|\n" +
		"A.. = applications, * = uncontrolled, . = idle\n"
	if out := tl.render(); out != want {
		t.Errorf("render:\n%s\nwant:\n%s", out, want)
	}
	// A trace that spans no time draws no timeline.
	var empty bytes.Buffer
	if err := WriteGantt(strings.NewReader(testHeader), &empty); err != nil {
		t.Fatal(err)
	}
	if got := empty.String(); strings.Contains(got, "cpu") || strings.Count(got, "\n") != 1 {
		t.Errorf("empty trace should render its title alone, got:\n%s", got)
	}
	// A run on a CPU the header does not count is refused, not drawn.
	for _, cpu := range []string{"-1", "2"} {
		in := testHeader + `{"t":0,"kind":"state","pid":1,"app":1,"from":"runnable","to":"running","cpu":` + cpu + "}\n"
		if err := WriteGantt(strings.NewReader(in), io.Discard); err == nil || !strings.Contains(err.Error(), "cpu "+cpu) {
			t.Errorf("run on cpu %s of 2: err %v, want one naming the cpu", cpu, err)
		}
	}
}

// TestGanttLeavesSleepIdle: a process that sleeps between two compute
// legs leaves its CPU idle in between, as two segments.
func TestGanttLeavesSleepIdle(t *testing.T) {
	tl := ganttTimeline(t, 1, func(k *kernel.Kernel) {
		k.SpawnResumable("a", 1, 0, kernel.Script(
			kernel.Compute(25*sim.Millisecond),
			kernel.SleepFor(50*sim.Millisecond),
			kernel.Compute(25*sim.Millisecond),
		))
	})
	if n := len(tl.cpus[0]); n != 2 {
		t.Fatalf("segments = %d, want 2", n)
	}
	for _, c := range []struct {
		at   sim.Duration
		want byte
	}{{10 * sim.Millisecond, 'A'}, {50 * sim.Millisecond, '.'}, {90 * sim.Millisecond, 'A'}} {
		if got := tl.glyphAt(0, sim.Time(c.at)); got != c.want {
			t.Errorf("glyph at %v = %c, want %c", c.at, got, c.want)
		}
	}
}

func TestGanttGlyphs(t *testing.T) {
	if appGlyph(kernel.AppNone) != '*' || appGlyph(1) != 'A' || appGlyph(26) != 'Z' || appGlyph(27) != '#' {
		t.Error("glyph mapping wrong")
	}
	// Each glyph reaches the rendered rows from the app the trace
	// records for the run.
	tl := ganttTimeline(t, 3, func(k *kernel.Kernel) {
		for _, app := range []kernel.AppID{kernel.AppNone, 26, 27} {
			k.SpawnResumable("p", app, 0, kernel.Script(kernel.Compute(10*sim.Millisecond)))
		}
	})
	for cpu, want := range []byte{'*', 'Z', '#'} {
		if got := tl.glyphAt(cpu, sim.Time(5*sim.Millisecond)); got != want {
			t.Errorf("cpu%d glyph = %c, want %c", cpu, got, want)
		}
	}
}
