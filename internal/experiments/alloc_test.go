package experiments

import (
	"runtime"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/flight"
)

// The figure calls the repo benchmark times, at its sizes: sim_sweep is
// Fig1 + Fig3 over three process counts and four applications (33
// simulations), sim_fig4 the paper's mix with control off and on; one
// seed each.
var (
	sweepProcs = []int{8, 16, 24}
	sweepApps  = []string{"fft", "sort", "gauss", "matmul"}
)

func sweepCall(o Options) {
	Fig1(o, sweepProcs)
	Fig3(o, sweepProcs, sweepApps...)
}

func fig4Call(o Options) { Fig4(o, nil) }

// BenchmarkFigureCalls is the profiling entry point for what a figure
// allocates (EXPERIMENTS.md PERF-8):
//
//	go test -run '^$' -bench FigureCalls/sweep -benchtime 20x \
//	    -memprofile mem.out -memprofilerate 4096 ./internal/experiments
//	go tool pprof -sample_index=alloc_space -top mem.out
func BenchmarkFigureCalls(b *testing.B) {
	o := Options{Seed: 1, Seeds: 1}
	for _, c := range []struct {
		name string
		call func(Options)
	}{{"sweep", sweepCall}, {"fig4", fig4Call}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				c.call(o)
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "GCs/op")
		})
	}
}

// allocatedBy returns the bytes the heap handed out during fn, on every
// goroutine (the figures fan out) — not the live heap: what the collector
// has to be fed to keep up with.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFigureAllocationBudget holds a simulation's memory to what it
// uses. The budgets sit between what the figures allocated before the
// flight ring, the per-launch arrays and the task array were sized to
// their contents (12.28 MB per sweep call, 20.44 MB per Fig4 call) and
// what they allocate now; most of what is left is the DAG builds.
func TestFigureAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark-size figures")
	}
	const mb = 1e6
	o := Options{Seed: 1, Seeds: 1}
	for _, c := range []struct {
		name   string
		call   func(Options)
		budget uint64
	}{
		{"Fig1+Fig3", sweepCall, 6.5 * mb},
		{"Fig4", fig4Call, 16 * mb},
	} {
		c.call(o) // lazy one-time set-up (metric name tables, goroutine stacks) is not the figure's
		if got := allocatedBy(func() { c.call(o) }); got > c.budget {
			t.Errorf("%s allocates %.2f MB per call, budget %.2f MB", c.name, float64(got)/mb, float64(c.budget)/mb)
		}
	}

	// A controlled single-application run records a handful of events:
	// a recorder of the server's capacity holding them must cost what
	// they take, not the daemon's 295 KB ring.
	s := NewSim(fastOpts(), true)
	app := s.LaunchNow(1, apps.TinyMatmul(), 4)
	s.mustFinish(s.RunUntil(app.Done), "matmul")
	events := s.Server.Events(0)
	if len(events) == 0 || s.Server.FlightRecorder().Cap() != flight.DefaultSize {
		t.Fatalf("controlled run: %d flight events in a ring of %d", len(events), s.Server.FlightRecorder().Cap())
	}
	got := allocatedBy(func() {
		rec := flight.New(flight.DefaultSize)
		for _, ev := range events {
			rec.Append(ev)
		}
	})
	if got >= 4<<10 {
		t.Errorf("a flight recorder holding a controlled run's %d events took %d bytes, want < 4 KB", len(events), got)
	}
}
