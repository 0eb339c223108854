package kernel

import (
	"testing"

	"procctl/internal/machine"
	"procctl/internal/sim"
)

func TestKillRunningForceReleasesLock(t *testing.T) {
	// The victim takes the lock and computes forever; a peer spins on
	// it. Killing the victim mid-critical-section must hand the lock to
	// the spinning peer so it can finish.
	k := testKernel(2)
	l := NewSpinLock("l")
	var peerDone sim.Time
	victim := k.SpawnResumable("victim", 1, 0, Script(Acquire(l), Compute(3600*sim.Second), release(l)))
	k.SpawnResumable("peer", 1, 0, Script(
		Compute(sim.Millisecond), // let the victim win the lock
		Acquire(l),
		Compute(sim.Millisecond),
		release(l),
		func(env *Env) { peerDone = env.Now() },
	))
	k.Engine().Schedule(sim.Time(20*sim.Millisecond), func() {
		if !k.Kill(victim) {
			t.Error("Kill returned false for a live process")
		}
	})
	k.Engine().RunUntilIdle()
	if victim.State() != Exited || !victim.killed {
		t.Errorf("victim state %v killed=%v, want exited killed", victim.State(), victim.killed)
	}
	if l.ForcedReleases != 1 {
		t.Errorf("ForcedReleases = %d, want 1", l.ForcedReleases)
	}
	if l.Holder() != nil {
		t.Errorf("lock still held by %v", l.Holder())
	}
	if peerDone == 0 {
		t.Fatal("peer never completed: lock not recovered from crashed holder")
	}
	if peerDone != sim.Time(21*sim.Millisecond) {
		t.Errorf("peer done at %v, want 21ms (kill at 20ms + 1ms critical section)", peerDone)
	}
	if k.Live() != 0 {
		t.Errorf("Live = %d after all exits", k.Live())
	}
}

func TestKillBlockedProcess(t *testing.T) {
	k := testKernel(2)
	q := NewWaitQueue("q")
	sleeper := k.SpawnResumable("sleeper", 1, 0, Script(Sleep(q))) // never woken
	k.Engine().Run(sim.Time(5 * sim.Millisecond))
	if sleeper.State() != Blocked {
		t.Fatalf("sleeper state %v, want blocked", sleeper.State())
	}
	k.Engine().Schedule(sim.Time(10*sim.Millisecond), func() { k.Kill(sleeper) })
	k.Engine().RunUntilIdle()
	if sleeper.State() != Exited {
		t.Errorf("sleeper state %v, want exited", sleeper.State())
	}
	if q.Len() != 0 {
		t.Errorf("wait queue still holds %d procs", q.Len())
	}
	if k.Live() != 0 {
		t.Errorf("Live = %d", k.Live())
	}
}

func TestKillRunnableReapedAtNextPick(t *testing.T) {
	// One CPU, two CPU-bound processes. Kill the queued (Runnable) one:
	// it must stop counting as runnable immediately and be reaped when
	// the scheduler next touches the queue, without ever running again.
	k := testKernel(1)
	a := k.SpawnResumable("a", 1, 0, Script(Compute(300*sim.Millisecond)))
	b := k.SpawnResumable("b", 1, 0, Script(Compute(300*sim.Millisecond)))
	_ = a
	k.Engine().Schedule(sim.Time(10*sim.Millisecond), func() {
		if b.State() != Runnable {
			t.Fatalf("b state %v, want runnable (a holds the only CPU)", b.State())
		}
		k.Kill(b)
		perApp, _ := k.CountByApp()
		if perApp[1] != 1 {
			t.Errorf("CountByApp = %d right after kill, want 1 (husk excluded)", perApp[1])
		}
	})
	k.Engine().RunUntilIdle()
	if b.State() != Exited {
		t.Errorf("b state %v, want exited (reaped)", b.State())
	}
	if b.Stats.CPUTime != 0 {
		t.Errorf("killed-while-queued process ran for %v", b.Stats.CPUTime)
	}
	if a.Stats.CPUTime != 300*sim.Millisecond {
		t.Errorf("survivor CPUTime %v, want 300ms", a.Stats.CPUTime)
	}
}

func TestKillAppKillsEveryProcess(t *testing.T) {
	k := testKernel(4)
	for i := 0; i < 6; i++ {
		k.SpawnResumable("w", 7, 0, Script(Compute(3600*sim.Second)))
	}
	surv := k.SpawnResumable("other", 8, 0, Script(Compute(50*sim.Millisecond)))
	k.Engine().Schedule(sim.Time(10*sim.Millisecond), func() {
		if n := k.KillApp(7); n != 6 {
			t.Errorf("KillApp = %d, want 6", n)
		}
	})
	k.Engine().RunUntilIdle()
	for _, p := range k.Processes() {
		if p.App() == 7 && p.State() != Exited {
			t.Errorf("%v not exited after KillApp", p)
		}
	}
	if surv.State() != Exited || surv.Stats.CPUTime != 50*sim.Millisecond {
		t.Errorf("survivor disturbed: state %v cpu %v", surv.State(), surv.Stats.CPUTime)
	}
}

func TestStallRunningProcess(t *testing.T) {
	// 100 ms of work, stalled at 10 ms for 50 ms on a frictionless
	// machine: completion must slip from 100 ms to exactly 150 ms.
	k := testKernel(1)
	var done sim.Time
	p := k.SpawnResumable("p", 1, 0, Script(
		Compute(100*sim.Millisecond),
		func(env *Env) { done = env.Now() },
	))
	k.Engine().Schedule(sim.Time(10*sim.Millisecond), func() {
		if !k.Stall(p, 50*sim.Millisecond) {
			t.Error("Stall returned false for a running process")
		}
		if p.State() != Blocked {
			t.Errorf("state %v right after stall, want blocked", p.State())
		}
	})
	k.Engine().RunUntilIdle()
	if done != sim.Time(150*sim.Millisecond) {
		t.Errorf("done at %v, want 150ms (no work lost, 50ms frozen)", done)
	}
}

func TestStallRunnableAppliedAtPick(t *testing.T) {
	// b is queued behind a on one CPU; a 200 ms stall issued while b is
	// Runnable must freeze b when it would first be dispatched.
	k := testKernel(1)
	var bDone sim.Time
	k.SpawnResumable("a", 1, 0, Script(Compute(150*sim.Millisecond)))
	b := k.SpawnResumable("b", 1, 0, Script(
		Compute(10*sim.Millisecond),
		func(env *Env) { bDone = env.Now() },
	))
	k.Engine().Schedule(sim.Time(5*sim.Millisecond), func() { k.Stall(b, 200*sim.Millisecond) })
	k.Engine().RunUntilIdle()
	if bDone == 0 {
		t.Fatal("b never completed")
	}
	// b may only run once its stall (set at 5 ms, so until 205 ms) has
	// passed; it needs 10 ms of CPU after that.
	if bDone < sim.Time(215*sim.Millisecond) {
		t.Errorf("b done at %v, ran during its stall window", bDone)
	}
	if b.Stats.CPUTime != 10*sim.Millisecond {
		t.Errorf("b CPUTime %v, want 10ms", b.Stats.CPUTime)
	}
}

func TestKilledHuskNeverPickedIsNeverResumed(t *testing.T) {
	// A Runnable process killed before it ever ran, and never picked
	// before the run ends, stays a husk: its body is never called, and it
	// no longer counts as runnable.
	k := testKernel(1)
	k.SpawnResumable("a", 1, 0, Script(Compute(3600*sim.Second)))
	b := k.SpawnResumable("b", 1, 0, func(*Env) Request {
		t.Error("the husk's body was called")
		return Exit()
	})
	k.Engine().Run(sim.Time(sim.Millisecond))
	if !k.Kill(b) {
		t.Fatal("Kill = false")
	}
	k.Engine().Run(sim.Time(50 * sim.Millisecond))
	if perApp, _ := k.CountByApp(); perApp[1] != 1 || b.State() != Runnable || !b.killed {
		t.Errorf("runnable count %d, husk %v killed=%v", perApp[1], b, b.killed)
	}
}

func TestKillDeterministic(t *testing.T) {
	run := func() []int64 {
		eng := sim.NewEngine(42)
		mac := machine.New(machine.Multimax16())
		k := New(eng, mac, NewTimeshare(), DefaultConfig())
		l := NewSpinLock("shared")
		for i := 0; i < 12; i++ {
			var steps []any
			for j := 0; j < 50; j++ {
				steps = append(steps,
					func(env *Env) Request { return Compute(env.Rand().Duration(sim.Millisecond, 4*sim.Millisecond)) },
					Acquire(l),
					Compute(200*sim.Microsecond),
					release(l))
			}
			k.SpawnResumable("p", AppID(1+i%2), 64<<10, Script(steps...))
		}
		eng.Schedule(sim.Time(30*sim.Millisecond), func() { k.KillApp(1) })
		eng.RunUntilIdle()
		var out []int64
		for _, p := range k.Processes() {
			out = append(out, int64(p.Stats.CPUTime), int64(p.Stats.SpinTime), p.Stats.Dispatches)
		}
		out = append(out, l.Acquires, l.ForcedReleases)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed kill runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
