package experiments

import (
	"bytes"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/trace"
)

// runTraced executes a small multiprogrammed run — two applications
// under process control, so server scans, polls, suspensions, and
// quantum jitter are all in play — and returns the complete scheduling
// event trace.
func runTraced(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	o := Options{
		Seed:         seed,
		Seeds:        1,
		ScanInterval: sim.Second,
		PollInterval: 2 * sim.Second,
		// Two CPUs under eight processes: the machine is oversubscribed,
		// so quanta actually expire and the seeded quantum jitter shapes
		// the schedule — without contention a seed change would be
		// invisible and the different-seed sanity check vacuous. The
		// tasks run 40/45 ms of continuous compute, past the 30 ms
		// quantum, for the same reason.
		Machine: machine.Config{NumCPU: 2},
		// kernel.New fills in the default 10 ms jitter for a zero
		// QuantumJitter (kernel.NoJitter would turn it off), so seeds
		// reach the schedule without explicit configuration here.
		Kernel: kernel.Config{Quantum: 30 * sim.Millisecond},
	}
	s := NewSim(o, true)
	rec := trace.NewRecorder(s.K, &buf, trace.Meta{Seed: seed, Control: true})
	a := s.LaunchNow(1, apps.Matmul(8, 2, 20*sim.Millisecond), 4)
	b := s.LaunchNow(2, apps.Matmul(6, 3, 15*sim.Millisecond), 4)
	if ok := s.RunUntil(func() bool { return a.Done() && b.Done() }); !ok {
		t.Fatalf("seed %d: run did not finish within the horizon", seed)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("seed %d: flushing trace: %v", seed, err)
	}
	if rec.Events() == 0 {
		t.Fatalf("seed %d: empty trace", seed)
	}
	return buf.Bytes()
}

// TestSameSeedByteIdenticalTrace: an identical seed must yield a
// byte-identical scheduling event trace. Any wall-clock read, map-order
// leak, or untracked goroutine in the simulation path shows up here as
// a diverging trace — a map-order leak only in some runs, which is why
// procctl-vet's maporder analyzer stays (EXPERIMENTS.md SIMPL-6).
func TestSameSeedByteIdenticalTrace(t *testing.T) {
	first := runTraced(t, 42)
	second := runTraced(t, 42)
	if bytes.Equal(first, second) {
		return
	}
	// Report the first diverging line for diagnosis.
	fl := bytes.Split(first, []byte("\n"))
	sl := bytes.Split(second, []byte("\n"))
	n := len(fl)
	if len(sl) < n {
		n = len(sl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(fl[i], sl[i]) {
			t.Fatalf("traces diverge at event line %d:\n  run 1: %s\n  run 2: %s", i+1, fl[i], sl[i])
		}
	}
	t.Fatalf("traces diverge in length: %d vs %d lines", len(fl), len(sl))
}

// TestDifferentSeedDifferentTrace guards the test above against
// vacuity: if seeds did not influence the schedule at all, identical
// traces would prove nothing.
func TestDifferentSeedDifferentTrace(t *testing.T) {
	if bytes.Equal(runTraced(t, 42), runTraced(t, 43)) {
		t.Fatal("seeds 42 and 43 produced identical traces; seeding is not reaching the schedule")
	}
}

// TestSameSeedStableAcrossPolicies repeats the byte-identical check
// under each scheduling policy, since policy code (partition, cosched)
// maintains its own queues and maps.
func TestSameSeedStableAcrossPolicies(t *testing.T) {
	names, factories := NamedPolicies()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() []byte {
				var buf bytes.Buffer
				o := Options{Seed: 7, Seeds: 1, NewPolicy: factories[name]}
				s := NewSim(o, false)
				rec := trace.NewRecorder(s.K, &buf, trace.Meta{Seed: 7})
				a := s.LaunchNow(1, apps.TinyGauss(), 3)
				b := s.LaunchNow(2, apps.TinySort(), 3)
				if ok := s.RunUntil(func() bool { return a.Done() && b.Done() }); !ok {
					t.Fatalf("%s: run did not finish", name)
				}
				if err := rec.Flush(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if !bytes.Equal(run(), run()) {
				t.Fatalf("%s: same seed produced different traces", name)
			}
		})
	}
}
