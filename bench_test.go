package procctl_test

// Benchmark harness: one benchmark per figure of the paper's evaluation
// plus the ablations listed in DESIGN.md. Each benchmark regenerates the
// figure's data (at a representative subset of sweep points, single
// seed) and reports the headline numbers as custom metrics, so
// `go test -bench=. -benchmem` reproduces the evaluation end to end.
// EXPERIMENTS.md records paper-vs-measured values from these runs.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"procctl"
	"procctl/internal/core"
	"procctl/internal/experiments"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Seeds: 1}
}

// BenchmarkFig1 regenerates Figure 1: matmul and fft run simultaneously
// without process control, speed-up versus processes per application.
func BenchmarkFig1(b *testing.B) {
	var r *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig1(benchOpts(), []int{8, 16, 24})
	}
	mm8, ff8 := r.SpeedupAt(8)
	mm24, ff24 := r.SpeedupAt(24)
	b.ReportMetric(mm8, "matmul-su@8")
	b.ReportMetric(ff8, "fft-su@8")
	b.ReportMetric(mm24, "matmul-su@24")
	b.ReportMetric(ff24, "fft-su@24")
}

// benchFig3 regenerates one panel of Figure 3.
func benchFig3(b *testing.B, app string) {
	var r *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3(benchOpts(), []int{16, 24}, app)
	}
	c := r.Curve(app)
	off16, on16 := c.At(16)
	off24, on24 := c.At(24)
	b.ReportMetric(off16, "orig-su@16")
	b.ReportMetric(on16, "ctl-su@16")
	b.ReportMetric(off24, "orig-su@24")
	b.ReportMetric(on24, "ctl-su@24")
}

// BenchmarkFig3FFT..Matmul regenerate the four panels of Figure 3:
// each application alone, original versus process-controlled package.
func BenchmarkFig3FFT(b *testing.B)    { benchFig3(b, "fft") }
func BenchmarkFig3Sort(b *testing.B)   { benchFig3(b, "sort") }
func BenchmarkFig3Gauss(b *testing.B)  { benchFig3(b, "gauss") }
func BenchmarkFig3Matmul(b *testing.B) { benchFig3(b, "matmul") }

// BenchmarkFig4 regenerates Figure 4: the staggered three-application
// mix, wall-clock per application with and without process control.
func BenchmarkFig4(b *testing.B) {
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(benchOpts(), nil)
	}
	for i, arr := range r.Mix {
		b.ReportMetric(r.Off.Elapsed[i].Seconds(), arr.App+"-off-s")
		b.ReportMetric(r.On.Elapsed[i].Seconds(), arr.App+"-on-s")
	}
}

// BenchmarkFig5 regenerates Figure 5: the runnable-process time series
// of the Figure 4 mix; reported metrics are the peaks and the controlled
// steady level.
func BenchmarkFig5(b *testing.B) {
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(benchOpts(), nil)
	}
	maxOn, maxOff := 0, 0
	for _, s := range r.On.Samples {
		if s.Total > maxOn {
			maxOn = s.Total
		}
	}
	for _, s := range r.Off.Samples {
		if s.Total > maxOff {
			maxOff = s.Total
		}
	}
	sum, n := 0, 0
	for _, s := range r.On.Samples {
		if s.At > sim.Time(25*sim.Second) && s.At < sim.Time(28*sim.Second) {
			sum += s.Total
			n++
		}
	}
	mean := 0.0
	if n > 0 {
		mean = float64(sum) / float64(n)
	}
	b.ReportMetric(float64(maxOn), "peak-runnable-ctl")
	b.ReportMetric(float64(maxOff), "peak-runnable-orig")
	b.ReportMetric(mean, "ctl-mean-25-28s")
}

// BenchmarkPolicyComparison regenerates the TAB-POL table: the Figure 4
// mix under every related-work scheduling policy.
func BenchmarkPolicyComparison(b *testing.B) {
	var r *experiments.PolicyResult
	for i := 0; i < b.N; i++ {
		r = experiments.PolicyComparison(benchOpts(), nil)
	}
	for _, row := range r.Rows {
		name := row.Name
		if row.Control {
			name += "+ctl"
		}
		b.ReportMetric(row.Makespan.Seconds(), name+"-makespan-s")
	}
}

// BenchmarkPollInterval regenerates ABL-POLL: sensitivity to the
// application poll interval.
func BenchmarkPollInterval(b *testing.B) {
	intervals := []sim.Duration{sim.Second, 6 * sim.Second, 24 * sim.Second}
	var r *experiments.PollSweepResult
	for i := 0; i < b.N; i++ {
		r = experiments.PollSweep(benchOpts(), intervals)
	}
	for i, iv := range r.Intervals {
		b.ReportMetric(r.MeanElapsed[i].Seconds(), "mean-elapsed-s@"+iv.String())
	}
}

// BenchmarkCachePenalty regenerates ABL-CACHE: the overloaded matmul on
// machines with increasingly expensive cache reloads.
func BenchmarkCachePenalty(b *testing.B) {
	var r *experiments.CacheSweepResult
	for i := 0; i < b.N; i++ {
		r = experiments.CacheSweep(benchOpts(), []float64{1, 5, 10})
	}
	for i, f := range r.Factors {
		b.ReportMetric(r.Uncontrolled[i], "orig-su@x"+itoa(int(f)))
		b.ReportMetric(r.Controlled[i], "ctl-su@x"+itoa(int(f)))
	}
}

// BenchmarkQuantumSweep regenerates ABL-QUANTUM: the Figure 1 overload
// point across kernel time slices.
func BenchmarkQuantumSweep(b *testing.B) {
	quanta := []sim.Duration{10 * sim.Millisecond, 30 * sim.Millisecond, 100 * sim.Millisecond}
	var r *experiments.QuantumSweepResult
	for i := 0; i < b.N; i++ {
		r = experiments.QuantumSweep(benchOpts(), quanta)
	}
	for i, q := range r.Quanta {
		b.ReportMetric(r.Matmul[i], "matmul-su@"+q.String())
	}
}

// BenchmarkUncontrolledMix regenerates ABL-UNCTL: a controlled gauss
// against a greedy uncontrolled matmul, timeshare versus partition.
func BenchmarkUncontrolledMix(b *testing.B) {
	var r *experiments.UncontrolledMixResult
	for i := 0; i < b.N; i++ {
		r = experiments.UncontrolledMix(benchOpts())
	}
	for i, pol := range r.Policies {
		b.ReportMetric(r.ControlledApp[i].Seconds(), "gauss-s-"+pol)
		b.ReportMetric(r.ControlledShare[i], "gauss-share-"+pol)
	}
}

// Microbenchmarks of the substrates.

// BenchmarkEngineEvents measures raw discrete-event throughput.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.After(1, tick)
		}
	}
	eng.After(1, tick)
	b.ResetTimer()
	eng.RunUntilIdle()
}

// BenchmarkEngineScheduleCancel measures the timer set/clear cycle the
// kernel performs on every dispatch: schedule a future event, then
// cancel it before it fires. Real cancellation removes the entry
// immediately, so the queue stays empty and both ops are zero-alloc.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Cancel(eng.After(1000, fn))
	}
}

// BenchmarkEngineChurn measures heap operations against a standing
// population of pending events: each op cancels a random pending event
// (interior heap removal) and schedules a replacement.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	rng := sim.NewRNG(7)
	fn := func() {}
	const population = 4096
	ids := make([]sim.EventID, population)
	for i := range ids {
		ids[i] = eng.Schedule(sim.Time(1+rng.Intn(1_000_000)), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(population)
		eng.Cancel(ids[j])
		ids[j] = eng.Schedule(sim.Time(1+rng.Intn(1_000_000)), fn)
	}
}

// BenchmarkEnginePopulation measures fire-and-reschedule against n
// standing timers, each landing at a random rank among the others (the
// shape of the repo benchmark's sim.bare_ns_per_event, which runs 64):
// where in n the engine's sorted window hands over to its heap.
func BenchmarkEnginePopulation(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine(1)
			rng := sim.NewRNG(7)
			left := b.N
			var tick func()
			tick = func() {
				if left--; left >= n {
					eng.After(sim.Duration(1+rng.Intn(2*n)), tick)
				}
			}
			for i := 0; i < n; i++ {
				eng.After(sim.Duration(1+rng.Intn(2*n)), tick)
			}
			b.ResetTimer()
			eng.RunUntilIdle()
		})
	}
}

// BenchmarkKernelContextSwitch measures the simulator's cost of a
// dispatch/preempt cycle (two CPU-bound processes on one CPU).
func BenchmarkKernelContextSwitch(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 1})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: sim.Millisecond, QuantumJitter: -1})
	for i := 0; i < 2; i++ {
		k.SpawnResumable("p", 1, 0, func(*kernel.Env) kernel.Request { return kernel.Compute(10 * sim.Millisecond) })
	}
	b.ResetTimer()
	// Each quantum is 1 ms of virtual time; b.N quanta.
	eng.Run(sim.Time(sim.Duration(b.N) * sim.Millisecond))
	b.StopTimer()
}

// BenchmarkSimulatedSpinlock measures lock handoff cost in the simulator.
func BenchmarkSimulatedSpinlock(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 4})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 100 * sim.Millisecond, QuantumJitter: -1})
	l := kernel.NewSpinLock("bench")
	for i := 0; i < 4; i++ {
		pc := 0 // forever: take l, compute inside, release, compute outside
		k.SpawnResumable("p", 1, 0, func(env *kernel.Env) kernel.Request {
			switch pc {
			case 0:
				pc = 1
				if !env.TryAcquire(l) {
					return kernel.Acquire(l)
				}
				fallthrough
			case 1:
				pc = 2
				return kernel.Compute(10 * sim.Microsecond)
			default:
				pc = 0
				env.Release(l)
				return kernel.Compute(10 * sim.Microsecond)
			}
		})
	}
	b.ResetTimer()
	target := int64(b.N)
	for l.Acquires < target {
		eng.Run(eng.Now().Add(10 * sim.Millisecond))
	}
	b.StopTimer()
}

// BenchmarkAllocate measures the core allocation policy.
func BenchmarkAllocate(b *testing.B) {
	demands := make([]core.Demand, 32)
	for i := range demands {
		demands[i] = core.Demand{Max: 1 + i%20}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Allocate(64, demands)
	}
}

// BenchmarkPoolThroughput measures real task throughput through the
// adaptive pool.
func BenchmarkPoolThroughput(b *testing.B) {
	p := procctl.NewPool(procctl.PoolConfig{Workers: 4})
	var n atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.Close()
	p.Wait()
	b.StopTimer()
	if n.Load() != int64(b.N) {
		b.Fatalf("ran %d of %d", n.Load(), b.N)
	}
}

// BenchmarkCoordinatorRebalance measures target recomputation with 32
// registered pools.
func BenchmarkCoordinatorRebalance(b *testing.B) {
	c := procctl.NewCoordinator(64)
	for i := 0; i < 32; i++ {
		p := procctl.NewPool(procctl.PoolConfig{Name: "p" + itoa(i), Workers: 8})
		defer func() { p.Close(); p.Wait() }()
		c.RegisterWeighted(p, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Rebalance()
	}
}

// itoa avoids pulling strconv into the benchmark's hot loop setup.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkDecentralized regenerates ABL-DECENTRAL: centralized vs
// decentralized control (the paper's Section 4.2 rejection).
func BenchmarkDecentralized(b *testing.B) {
	var r *experiments.DecentralResult
	for i := 0; i < b.N; i++ {
		r = experiments.Decentral(benchOpts(), nil)
	}
	for i, m := range r.Modes {
		b.ReportMetric(r.Unfairness[i], "unfairness-"+m)
	}
}

// BenchmarkTaskLatency regenerates ABL-LATENCY: task queueing-delay
// tails under overload, original vs controlled.
func BenchmarkTaskLatency(b *testing.B) {
	var r *experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		r = experiments.Latency(benchOpts(), 24)
	}
	b.ReportMetric(sim.Duration(r.Off.Quantile(990)).Seconds(), "orig-p99-s")
	b.ReportMetric(sim.Duration(r.On.Quantile(990)).Seconds(), "ctl-p99-s")
}
