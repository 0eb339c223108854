package experiments

import (
	"runtime"
	"sync"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/sim"
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

// engineWindow is sim's unexported window: how many of the earliest
// pending events the engine keeps in its sorted array, ahead of the heap.
// sim.TestWindowIsTheMeasuredSize fails if the constant moves without it.
const engineWindow = 64

// engineSpy is a policy that notes the engine of every kernel it is
// attached to: a figure call builds its simulations out of sight.
type engineSpy struct {
	kernel.Policy
	mu      *sync.Mutex
	engines *[]*sim.Engine
}

func (p engineSpy) Attach(k *kernel.Kernel) {
	p.mu.Lock()
	*p.engines = append(*p.engines, k.Engine())
	p.mu.Unlock()
	p.Policy.Attach(k)
}

// TestFigureQueuesFitTheWindow pins the traffic the engine's window was
// sized for (EXPERIMENTS.md PERF-9): no simulation of the benchmark's
// figure calls ever has more events pending than the window holds (34
// and 37 when it was sized), so a figure's heap stays empty and every
// Schedule is a short insertion.
func TestFigureQueuesFitTheWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark-size figures")
	}
	for _, c := range []struct {
		name string
		call func(Options)
	}{{"Fig1+Fig3", sweepCall}, {"Fig4", fig4Call}} {
		var mu sync.Mutex
		var engines []*sim.Engine
		c.call(Options{Seed: 1, Seeds: 1, NewPolicy: func() kernel.Policy {
			return engineSpy{kernel.NewTimeshare(), &mu, &engines}
		}})
		most := 0
		for _, e := range engines {
			most = max(most, e.HighWater())
		}
		t.Logf("%s: %d simulations, at most %d events pending", c.name, len(engines), most)
		if len(engines) == 0 || most == 0 {
			t.Errorf("%s: saw %d engines with at most %d events pending", c.name, len(engines), most)
		}
		if most > engineWindow {
			t.Errorf("%s holds %d events pending, more than the engine's window of %d: its queue now spills to the heap. "+
				"Before changing sim's window constant, redo PERF-9's window-size measurement (BenchmarkFigureCalls, "+
				"BenchmarkEngineChurn and BenchmarkEnginePopulation at each candidate size)", c.name, most, engineWindow)
		}
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
}
