package faultinject

import (
	"testing"

	"procctl/internal/apps"
	"procctl/internal/ctrl"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

func newKernel(ncpu int) *kernel.Kernel {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: ncpu})
	return kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 50 * sim.Millisecond, QuantumJitter: -1})
}

// count reads one of k's counters: the injector's, or one the kernel
// or the server derives when read.
func count(k *kernel.Kernel, name string) int64 {
	n, _ := k.Metrics().Value(name)
	return n
}

func TestCrashAppKillsAtInstant(t *testing.T) {
	k := newKernel(4)
	inj := New(k, 7)
	for i := 0; i < 3; i++ {
		k.SpawnResumable("w", 1, 0, kernel.Script(kernel.Compute(3600*sim.Second)))
	}
	inj.CrashApp(sim.Time(10*sim.Millisecond), 1)
	k.Engine().RunUntilIdle()
	if got := count(k, MetricCrashes); got != 3 {
		t.Errorf("crash counter = %d, want 3", got)
	}
	if k.Live() != 0 {
		t.Errorf("Live = %d after CrashApp", k.Live())
	}
}

func TestCrashAppInLockWaitsForCriticalSection(t *testing.T) {
	// The victim only enters its critical section at 10ms; a lock-crash
	// armed at time zero must hold its fire until then, and the lock
	// must be force-released so the peer app finishes.
	k := newKernel(2)
	l := k.NewSpinLock("shared")
	inj := New(k, 7)
	var crashedAt sim.Time
	release := func(env *kernel.Env) { env.Release(l) }
	k.SpawnResumable("victim", 1, 0, kernel.Script(
		kernel.Compute(10*sim.Millisecond),
		kernel.Acquire(l),
		kernel.Compute(3600*sim.Second), // crash lands in here
		release,
	))
	var peerDone sim.Time
	k.SpawnResumable("peer", 2, 0, kernel.Script(
		kernel.Compute(15*sim.Millisecond),
		kernel.Acquire(l),
		kernel.Compute(sim.Millisecond),
		release,
		func(env *kernel.Env) { peerDone = env.Now() },
	))
	inj.CrashAppInLock(0, 1)
	k.Engine().Every(sim.Millisecond, func() bool {
		if crashedAt == 0 && count(k, MetricLockCrashes) > 0 {
			crashedAt = k.Engine().Now()
		}
		return crashedAt == 0
	})
	k.Engine().RunUntilIdle()
	if lock, all := count(k, MetricLockCrashes), count(k, MetricCrashes); lock != 1 || all != 1 {
		t.Fatalf("LockCrashes=%d Crashes=%d, want 1/1", lock, all)
	}
	if crashedAt < sim.Time(10*sim.Millisecond) {
		t.Errorf("crash fired at %v, before the critical section opened", crashedAt)
	}
	if l.ForcedReleases != 1 {
		t.Errorf("ForcedReleases = %d, want 1 (victim died holding the lock)", l.ForcedReleases)
	}
	if peerDone == 0 {
		t.Error("peer never finished: lock not recovered")
	}
}

func TestCrashAppInLockGivesUpWhenAppExits(t *testing.T) {
	// An armed lock-crash whose victim exits without ever locking must
	// stop probing, or RunUntilIdle would never return.
	k := newKernel(2)
	inj := New(k, 7)
	k.SpawnResumable("w", 1, 0, kernel.Script(kernel.Compute(5*sim.Millisecond)))
	inj.CrashAppInLock(0, 1)
	k.Engine().RunUntilIdle()
	if lock, all := count(k, MetricLockCrashes), count(k, MetricCrashes); lock != 0 || all != 0 {
		t.Errorf("phantom crash: LockCrashes=%d Crashes=%d", lock, all)
	}
}

func TestStallAppFreezesAndResumes(t *testing.T) {
	k := newKernel(2)
	inj := New(k, 7)
	var done sim.Time
	k.SpawnResumable("w", 1, 0, kernel.Script(
		kernel.Compute(100*sim.Millisecond),
		func(env *kernel.Env) { done = env.Now() },
	))
	inj.StallApp(sim.Time(10*sim.Millisecond), 1, 50*sim.Millisecond)
	k.Engine().RunUntilIdle()
	if got := count(k, MetricStalls); got != 1 {
		t.Errorf("Stalls = %d, want 1", got)
	}
	if done != sim.Time(150*sim.Millisecond) {
		t.Errorf("done at %v, want 150ms (100ms work + 50ms frozen)", done)
	}
}

// countingController records calls so tests can observe what reaches
// the real server through a FlakyController.
type countingController struct {
	polls  int
	target int
	regs   int
	unregs int
}

func (c *countingController) Register(kernel.AppID, int) { c.regs++ }
func (c *countingController) Unregister(kernel.AppID)    { c.unregs++ }
func (c *countingController) Poll(kernel.AppID) int {
	c.polls++
	return c.target
}

func TestFlakyDropNeverReachesServer(t *testing.T) {
	k := newKernel(2)
	inj := New(k, 7)
	inner := &countingController{target: 5}
	f := inj.Flaky(inner, 1.0, 0) // every poll lost
	f.Register(1, 8)
	for i := 0; i < 4; i++ {
		if got := f.Poll(1); got != 8 {
			t.Errorf("dropped poll returned %d, want the pre-drop target 8", got)
		}
	}
	if inner.polls != 0 {
		t.Errorf("server saw %d polls through a fully lossy channel", inner.polls)
	}
	if got := count(k, MetricPollsDropped); got != 4 {
		t.Errorf("Dropped = %d, want 4", got)
	}
	if inner.regs != 1 {
		t.Errorf("registration did not pass through")
	}
}

func TestFlakyDelaySlipsOnePoll(t *testing.T) {
	k := newKernel(2)
	inj := New(k, 7)
	inner := &countingController{target: 3}
	f := inj.Flaky(inner, 0, 1.0) // every reply one poll late
	f.Register(1, 8)
	if got := f.Poll(1); got != 8 {
		t.Errorf("first delayed poll returned %d, want the registration value 8", got)
	}
	inner.target = 6
	if got := f.Poll(1); got != 3 {
		t.Errorf("second poll returned %d, want the first reply 3", got)
	}
	if inner.polls != 2 {
		t.Errorf("server saw %d polls, want 2 (delays still reach it)", inner.polls)
	}
	if got := count(k, MetricPollsDelayed); got != 2 {
		t.Errorf("Delayed = %d, want 2", got)
	}
}

func TestFlakySilenceExpiresLease(t *testing.T) {
	// With every poll dropped, the central server hears nothing after
	// registration and must expire the app's lease; with the sim's
	// degraded-mode floor the app still finishes on one process.
	eng := sim.NewEngine(3)
	mac := machine.New(machine.Config{NumCPU: 4})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.DefaultConfig())
	srv := ctrl.NewServer(k, 0)
	srv.SetLease(2 * sim.Second) // well inside the workload's runtime
	inj := New(k, 11)
	flaky := inj.Flaky(srv, 1.0, 0)
	app := threads.Launch(k, 1, apps.Matmul(16, 2, sim.Second), threads.Config{
		Procs:        4,
		Controller:   flaky,
		PollInterval: 6 * sim.Second,
	})
	eng.Run(sim.Time(0).Add(5 * sim.Second))
	if got := count(k, ctrl.MetricLeaseExpiries); got != 1 {
		t.Errorf("LeaseExpiries = %d, want 1 (app silent past its lease)", got)
	}
	eng.Run(sim.Time(0).Add(120 * sim.Second))
	if !app.Done() {
		t.Error("app never finished under total poll loss")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() []int64 {
		eng := sim.NewEngine(42)
		mac := machine.New(machine.Config{NumCPU: 8})
		k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.DefaultConfig())
		srv := ctrl.NewServer(k, 0)
		inj := New(k, 99)
		flaky := inj.Flaky(srv, 0.3, 0.2)
		a := threads.Launch(k, 1, apps.TinyFFT(), threads.Config{Procs: 8, Controller: flaky, PollInterval: sim.Second})
		b := threads.Launch(k, 2, apps.TinyGauss(), threads.Config{Procs: 8, Controller: flaky, PollInterval: sim.Second})
		_ = b // crashed mid-run; only its side effects are asserted
		inj.CrashAppInLock(sim.Time(20*sim.Millisecond), 2)
		inj.StallApp(sim.Time(5*sim.Millisecond), 1, 10*sim.Millisecond)
		eng.Run(sim.Time(0).Add(60 * sim.Second))
		k.Finalize()
		// Every count from one snapshot.
		snap := k.MetricsSnapshot()
		out := []int64{int64(a.Elapsed())}
		for _, name := range []string{MetricCrashes, MetricLockCrashes, MetricStalls, MetricPollsDropped, MetricPollsDelayed,
			kernel.MetricKills, kernel.MetricForcedReleases, ctrl.MetricLeaseExpiries} {
			m := snap.Get(name)
			if m == nil {
				t.Fatalf("%s missing from the snapshot", name)
			}
			out = append(out, m.Value)
		}
		return out
	}
	x, y := run(), run()
	if forced := x[7]; forced <= 0 {
		t.Errorf("%s = %d, want > 0: the crash in a lock must force a release", kernel.MetricForcedReleases, forced)
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("same-seed fault runs diverged at %d: %v vs %v", i, x, y)
		}
	}
}
