package trace

import (
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

// newSamplerSim builds a small oversubscribed machine so runnable counts
// move during the run.
func newSamplerSim(seed uint64) (*sim.Engine, *kernel.Kernel) {
	eng := sim.NewEngine(seed)
	mac := machine.New(machine.Config{NumCPU: 2})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 20 * sim.Millisecond})
	return eng, k
}

func TestSamplerPerAppAndUncontrolled(t *testing.T) {
	eng, k := newSamplerSim(1)
	s := NewSampler(k, 25*sim.Millisecond)
	for i := 0; i < 3; i++ {
		k.SpawnResumable("a1", 1, 0, kernel.Script(kernel.Compute(200*sim.Millisecond)))
	}
	k.SpawnResumable("bg", kernel.AppNone, 0, kernel.Script(kernel.Compute(100*sim.Millisecond)))
	eng.Run(sim.Time(50 * sim.Millisecond))
	s.Stop()

	last := s.Samples[len(s.Samples)-1]
	if last.App(1) != 3 {
		t.Errorf("app 1 = %d, want 3", last.App(1))
	}
	if last.App(kernel.AppNone) != 1 {
		t.Errorf("uncontrolled = %d, want 1", last.App(kernel.AppNone))
	}
	if last.Total() != 4 {
		t.Errorf("total = %d, want 4", last.Total())
	}
	// An application that never existed reads as zero in every sample.
	for i, smp := range s.Samples {
		if n := smp.App(99); n != 0 {
			t.Errorf("absent-app count[%d] = %d, want 0", i, n)
		}
	}
	eng.Run(sim.Time(2 * sim.Second))
}

// TestSamplerMatchesRunnableGauge ties the two observation paths
// together: at any instant, the sampler's system-wide total (the
// paper's Figure 5 measurement) must equal the registry's
// sim_kernel_runnable_procs gauge — both count Runnable plus Running
// processes. Sampling and snapshotting happen back to back at a halted
// engine, so no event can slip between the two reads.
func TestSamplerMatchesRunnableGauge(t *testing.T) {
	eng, k := newSamplerSim(7)
	s := NewSampler(k, 1000*sim.Second) // only explicit take()s below
	for i := 0; i < 4; i++ {
		k.SpawnResumable("w", 1, 0, kernel.Script(kernel.Compute(120*sim.Millisecond)))
	}
	k.SpawnResumable("bg", kernel.AppNone, 0, kernel.Script(kernel.Compute(60*sim.Millisecond)))

	instants := []sim.Time{
		sim.Time(10 * sim.Millisecond),  // everything runnable
		sim.Time(150 * sim.Millisecond), // background work done
		sim.Time(2 * sim.Second),        // all exited
	}
	sawNonzero := false
	for _, at := range instants {
		eng.Run(at)
		s.take()
		snap := k.MetricsSnapshot()
		m := snap.Get(kernel.MetricRunnable)
		if m == nil {
			t.Fatalf("at %v: %s missing from snapshot", at, kernel.MetricRunnable)
		}
		got := s.Samples[len(s.Samples)-1]
		if int64(got.Total()) != m.Value {
			t.Errorf("at %v: sampler total %d != runnable gauge %d", at, got.Total(), m.Value)
		}
		if m.Value > 0 {
			sawNonzero = true
		}
	}
	if !sawNonzero {
		t.Error("runnable gauge never nonzero; the comparison was vacuous")
	}
}
