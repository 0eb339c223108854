package procctl_test

// Microbenchmarks of the substrates the facade and the simulator stand
// on: the event engine, the simulated kernel, the allocation policy,
// the pool and the coordinator. The figures themselves are held by
// cmd/procctl-sim's published render (testdata/all.golden);
// BenchmarkFigureCalls in internal/experiments is their profiling entry
// point.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"procctl"
	"procctl/internal/core"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

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
		p := procctl.NewPool(procctl.PoolConfig{Name: fmt.Sprint("p", i), Workers: 8})
		defer func() { p.Close(); p.Wait() }()
		c.RegisterWeighted(p, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Rebalance()
	}
}
