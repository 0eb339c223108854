package kernel

import (
	"testing"

	"procctl/internal/sim"
)

// The simulator's steady per-request paths, each a kernel whose engine
// runs one path over and over: a timeslice preemption between two
// CPU-bound processes on one CPU (the root package's
// BenchmarkKernelContextSwitch), a Compute completing and its body's next
// request with nothing else runnable (BenchmarkKernelRendezvous), and four
// processes handing a spin lock around on four CPUs (the root package's
// BenchmarkSimulatedSpinlock). Each body is a state machine that goes
// round forever.

func contextSwitchKernel() *Kernel {
	k := testKernelPolicy(1, NewTimeshare(), Config{Quantum: sim.Millisecond, QuantumJitter: -1})
	for i := 0; i < 2; i++ {
		k.SpawnResumable("p", 1, 0, func(*Env) Request { return Compute(10 * sim.Millisecond) })
	}
	return k
}

func rendezvousKernel() *Kernel {
	k := testKernelPolicy(1, NewTimeshare(), Config{Quantum: 3600 * sim.Second, QuantumJitter: -1})
	k.SpawnResumable("p", 1, 0, func(*Env) Request { return Compute(sim.Microsecond) })
	return k
}

func spinLockKernel() *Kernel {
	k := testKernelPolicy(4, NewTimeshare(), Config{Quantum: 100 * sim.Millisecond, QuantumJitter: -1})
	l := k.NewSpinLock("bench")
	for i := 0; i < 4; i++ {
		pc := 0
		k.SpawnResumable("p", 1, 0, func(env *Env) Request {
			switch pc {
			case 0: // take the lock: a free one in the body, a held one by spinning
				pc = 1
				if !env.TryAcquire(l) {
					return Acquire(l)
				}
				fallthrough
			case 1:
				pc = 2
				return Compute(10 * sim.Microsecond)
			default:
				pc = 0
				env.Release(l)
				return Compute(10 * sim.Microsecond)
			}
		})
	}
	return k
}

// BenchmarkKernelRendezvous is one blocking request and nothing else: a
// Compute completes, the engine calls the body for its next request,
// and the next completion is scheduled.
func BenchmarkKernelRendezvous(b *testing.B) {
	b.ReportAllocs()
	k := rendezvousKernel()
	b.ResetTimer()
	k.Engine().Run(sim.Time(sim.Duration(b.N) * sim.Microsecond))
	b.StopTimer()
}

// Once warm, none of the three paths allocates: a run of ten preemptions,
// a hundred rendezvous or a millisecond of lock handoffs makes no
// allocation at all.
func TestSteadyRequestPathsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    func() *Kernel
		step sim.Duration
	}{
		{"context switch", contextSwitchKernel, 10 * sim.Millisecond},
		{"rendezvous", rendezvousKernel, 100 * sim.Microsecond},
		{"spin lock", spinLockKernel, sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.k()
			eng := k.Engine()
			eng.Run(eng.Now().Add(100 * tc.step))
			if n := testing.AllocsPerRun(100, func() { eng.Run(eng.Now().Add(tc.step)) }); n != 0 {
				t.Errorf("%v of virtual time allocates %.0f times, want 0", tc.step, n)
			}
		})
	}
}
