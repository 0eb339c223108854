package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"procctl/internal/experiments"
	"procctl/internal/sim"
)

// toySizes run every workload's real code path, every correctness check
// included, in a few seconds.
var toySizes = sizes{
	members:      64,
	pollsPerRep:  2000,
	cyclesPerRep: 3,
	churnPct:     5,
	tasksPerRep:  5000,
	spinMeanIter: 200,
	setupReps:    1,
	simSetupReps: 2, // two passes, so the determinism check has something to compare
	recoverReps:  1,
	pacedRate:    2000,
	pacedSeconds: 0.1,
	probeIters:   2000,
	stubFleets:   []int{200},
	fig4Mix: []experiments.Fig4Arrival{
		{App: "fft", At: 0, Procs: 4},
		{App: "matmul", At: sim.Time(sim.Second), Procs: 4},
	},
	sweepProcs: []int{4},
	sweepApps:  []string{"fft"},
	minReps:    2,
	calibIters: 1000,
}

func TestSmokeWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				outDir := t.TempDir()
				out, err := runOne(w, 7, 0, traced, toySizes, t.TempDir(), outDir, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, log.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Fatalf("reported %d metrics, the contract has %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %q", d.Name, m, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s is %v", d.Name, m.Value)
					}
					// Every end-to-end metric means something on every
					// workload, so none may read zero.
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v on %s", d.Name, m.Value, w.name)
					}
				}
				if traced {
					path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
					if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
						t.Errorf("no span file at %s: %v", path, err)
					}
				}
			})
		}
	}
}

// The metric lists in metricdefs.go and BENCHMARK.json are one contract
// written down twice; this keeps them equal.
func TestContractMatchesMetricDefs(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metricdefs.go %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s (%s), metricdefs.go has %s (%s)", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metricdefs.go %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s (%s), metricdefs.go has %s (%s)", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, main.go %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workloads[%d] = %s, main.go has %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: "cycle", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: "learn", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: "learn", Start: 20, End: 50}, // overlaps span 2: union is [10,50]
		{ID: 4, Parent: 1, Op: "ack", Start: 60, End: 70},
		{ID: 5, Parent: 4, Op: "poll", Start: 62, End: 65},
	}
	want := map[string][2]int64{ // op -> total, self
		"cycle": {100, 50}, // 100 - (40 + 10)
		"learn": {50, 50},
		"ack":   {10, 7},
		"poll":  {3, 3},
	}
	for _, r := range selfTimes(spans) {
		w := want[r.Op]
		if int64(r.Total) != w[0] || int64(r.Self) != w[1] {
			t.Errorf("%s: total %d self %d, want %d and %d", r.Op, r.Total, r.Self, w[0], w[1])
		}
	}
	// Sequential children partition the parent exactly.
	seq := []span{spans[0], spans[1], spans[3], spans[4]}
	if worst, n := closure(seq, "cycle"); n != 1 || worst != 0 {
		t.Errorf("sequential tree: closure error %v over %d spans, want 0 over 1", worst, n)
	}
	// A child that escapes its parent's interval must show.
	escaped := append([]span(nil), seq...)
	escaped[2].End = 140
	if worst, _ := closure(escaped, "cycle"); worst < 0.10 {
		t.Errorf("escaping child: closure error %v, want at least 0.10", worst)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 35], n=4) == [1.75, 4.5, 6.75]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 35})
	if q1 != 1.75 || q2 != 4.5 || q3 != 6.75 {
		t.Errorf("quartiles = %v %v %v, want 1.75 4.5 6.75", q1, q2, q3)
	}
}

func TestAtTicksInterpolates(t *testing.T) {
	// Ten samples truncated to whole microseconds: four read 2 µs, six 3 µs.
	l := latencies{2000, 2000, 2000, 2000, 3000, 3000, 3000, 3000, 3000, 3000}
	if got := l.atTicks(0.5, 1000); math.Abs(got-(3000+1000.0/6)) > 1e-9 {
		t.Errorf("p50 = %v, want one sixth into the 3 µs tick", got)
	}
	if got := l.at(0.5); got != 3000 {
		t.Errorf("nearest rank p50 = %v, want 3000", got)
	}
}
