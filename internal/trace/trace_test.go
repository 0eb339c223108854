package trace

import (
	"strings"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

func TestSamplerSeries(t *testing.T) {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 4})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 50 * sim.Millisecond})
	s := NewSampler(k, 100*sim.Millisecond)
	for i := 0; i < 2; i++ {
		k.SpawnResumable("a", 1, 0, kernel.Script(kernel.Compute(250*sim.Millisecond)))
	}
	k.SpawnResumable("bg", kernel.AppNone, 0, kernel.Script(kernel.Compute(150*sim.Millisecond)))
	eng.Run(sim.Time(sim.Second))
	s.Stop()

	if len(s.Samples) < 5 {
		t.Fatalf("%d samples", len(s.Samples))
	}
	// Sample at t=0 (before anything ran... processes spawn at t=0, so
	// first sample may already see them) and at 100ms: app 1 has 2.
	if n := s.Samples[1].App(1); n != 2 {
		t.Errorf("app 1 count at 100ms = %d, want 2", n)
	}
	if n := s.Samples[1].Total(); n != 3 {
		t.Errorf("total at 100ms = %d, want 3", n)
	}
	// After 300 ms everything exited.
	if n := s.Samples[len(s.Samples)-1].Total(); n != 0 {
		t.Errorf("final total = %d, want 0", n)
	}
	peak := 0
	for _, smp := range s.Samples {
		peak = max(peak, smp.Total())
	}
	if peak != 3 {
		t.Errorf("peak total = %d, want 3", peak)
	}
}

func TestSamplerStop(t *testing.T) {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 1})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{})
	s := NewSampler(k, 10*sim.Millisecond)
	k.SpawnResumable("p", 1, 0, kernel.Script(kernel.Compute(sim.Second)))
	eng.Run(sim.Time(50 * sim.Millisecond))
	n := len(s.Samples)
	s.Stop()
	s.Stop() // idempotent
	eng.Run(sim.Time(500 * sim.Millisecond))
	if len(s.Samples) != n {
		t.Errorf("sampler kept sampling after Stop: %d -> %d", n, len(s.Samples))
	}
	eng.Run(sim.Time(2 * sim.Second))
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value", "time")
	tb.Row("alpha", 3.14159, sim.Duration(2500*sim.Millisecond))
	tb.Row("b", 1.0, sim.Duration(0))
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "3.14") {
		t.Error("float not formatted to 2 decimals")
	}
	if !strings.Contains(out, "2.50s") {
		t.Error("duration not formatted as seconds")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
	if len(tb.rows) != 2 {
		t.Errorf("%d rows", len(tb.rows))
	}
	// Columns align: header and row share the position of the last column.
	if len(lines[1]) != len(lines[3]) {
		t.Errorf("misaligned header/row:\n%s", out)
	}
}

func TestTableTimeFormatting(t *testing.T) {
	tb := NewTable("", "t")
	tb.Row(sim.Time(10 * sim.Second))
	if !strings.Contains(tb.String(), "10.0s") {
		t.Errorf("time cell: %q", tb.String())
	}
}

func TestAsciiSeries(t *testing.T) {
	times := []sim.Time{0, sim.Time(sim.Second), sim.Time(2 * sim.Second)}
	counts := []int{0, 24, 48}
	out := AsciiSeries("procs", times, counts, 24)
	if !strings.Contains(out, "procs") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	// Peak (48) scales to 24 '#'s; 24 scales to 12.
	if strings.Count(lines[2], "#") != 12 {
		t.Errorf("mid bar = %d hashes, want 12: %q", strings.Count(lines[2], "#"), lines[2])
	}
	if strings.Count(lines[3], "#") != 24 {
		t.Errorf("peak bar = %d hashes, want 24", strings.Count(lines[3], "#"))
	}
	if !strings.Contains(lines[3], "48") {
		t.Error("raw count missing from line")
	}
}

func TestAsciiSeriesNoScalingWhenSmall(t *testing.T) {
	out := AsciiSeries("s", []sim.Time{0}, []int{5}, 40)
	if strings.Count(out, "#") != 5 {
		t.Errorf("small series scaled: %q", out)
	}
}
