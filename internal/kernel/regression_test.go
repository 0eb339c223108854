package kernel

import (
	"testing"

	"procctl/internal/machine"
	"procctl/internal/sim"
)

// Regression tests for scheduling bugs found while calibrating the
// paper reproduction. Each encodes an interleaving that once
// double-granted a lock, lost a wakeup, or livelocked.

// TestRegressionGrantDuringDispatchOverhead: a lock released while a
// spinning waiter is paying its dispatch overhead (context switch +
// cache reload) must not be granted to it twice — once by the release
// and once by the post-overhead continuation. The symptom was a
// "releasing lock held by someone else" panic.
func TestRegressionGrantDuringDispatchOverhead(t *testing.T) {
	eng := sim.NewEngine(1)
	// Large dispatch overhead widens the window.
	mac := machine.New(machine.Config{
		NumCPU: 1, ContextSwitch: 5 * sim.Millisecond,
		CacheSize: 64 << 10, ReloadRate: 1,
	})
	k := New(eng, mac, NewTimeshare(), Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	l := NewSpinLock("l")
	acquisitions := 0
	for i := 0; i < 3; i++ {
		k.SpawnResumable("p", 1, 64<<10, Script(repeat(20,
			Acquire(l),
			func(*Env) { acquisitions++ },
			Compute(3*sim.Millisecond),
			release(l),
			Compute(sim.Millisecond),
		)...))
	}
	eng.RunUntilIdle()
	if acquisitions != 60 {
		t.Errorf("acquisitions = %d, want 60", acquisitions)
	}
	if l.Holder() != nil {
		t.Error("lock leaked")
	}
}

// TestRegressionWokenProcessResumes: a process woken from a wait queue
// must resume *past* its Sleep at the next dispatch — not re-sleep.
// The symptom was suspended workers that never came back, so targets
// could fall but never rise.
func TestRegressionWokenProcessResumes(t *testing.T) {
	k := testKernel(1)
	q := NewWaitQueue("q")
	resumed := 0
	for i := 0; i < 3; i++ {
		k.SpawnResumable("sleeper", 1, 0, Script(
			Sleep(q),
			func(*Env) { resumed++ },
			Compute(sim.Millisecond),
		))
	}
	k.SpawnResumable("waker", 2, 0, Script(repeat(3, Compute(5*sim.Millisecond), wake(q, 1))...))
	eng := k.Engine()
	eng.RunUntilIdle()
	if resumed != 3 {
		t.Errorf("resumed = %d, want 3 (woken processes re-slept?)", resumed)
	}
	if k.Live() != 0 {
		t.Errorf("%d processes never exited", k.Live())
	}
}

// TestRegressionExtensionCompletionTie: under the spin-flag policy, a
// critical-section compute whose completion lands exactly on the
// quantum boundary used to get two completion events (the extension
// rescheduled one while the original stayed armed), double-advancing
// the body. The tie must resolve to a single completion.
func TestRegressionExtensionCompletionTie(t *testing.T) {
	k := testKernelPolicy(1, NewSpinFlag(), Config{Quantum: 50 * sim.Millisecond, QuantumJitter: -1})
	l := NewSpinLock("l")
	releases := 0
	k.SpawnResumable("holder", 1, 0, Script(
		Acquire(l),
		Compute(50*sim.Millisecond), // completion exactly at quantum end
		release(l),
		func(*Env) { releases++ },
		Compute(10*sim.Millisecond),
	))
	k.SpawnResumable("other", 2, 0, Script(Compute(100*sim.Millisecond)))
	k.Engine().RunUntilIdle()
	if releases != 1 {
		t.Errorf("releases = %d, want 1", releases)
	}
	if l.Acquires != 1 {
		t.Errorf("lock acquired %d times, want 1", l.Acquires)
	}
}

// TestRegressionNoConvoyLivelock: heavily overloaded lock-heavy
// applications must keep making progress. With perfectly synchronized
// quanta (no jitter) and expensive empty-queue checks, the system once
// phase-locked into cohorts where lock holders and completers never
// overlapped with a free lock — zero progress forever. Quantum jitter
// (on by default) must prevent it.
func TestRegressionNoConvoyLivelock(t *testing.T) {
	eng := sim.NewEngine(7)
	mac := machine.New(machine.Multimax16())
	k := New(eng, mac, NewTimeshare(), DefaultConfig()) // jitter on
	l := NewSpinLock("hot")
	done := 0
	const procs, rounds = 48, 40
	for i := 0; i < procs; i++ {
		steps := repeat(rounds, Acquire(l), Compute(150*sim.Microsecond), release(l), Compute(4*sim.Millisecond))
		k.SpawnResumable("w", AppID(1+i%3), 64<<10, Script(append(steps, func(*Env) { done++ })...))
	}
	horizon := sim.Time(300 * sim.Second)
	for k.Live() > 0 && eng.Now() < horizon {
		eng.Run(eng.Now().Add(sim.Second))
	}
	if done != procs {
		t.Fatalf("only %d/%d workers finished by %v: convoy livelock", done, procs, eng.Now())
	}
}

// TestRegressionPreemptedWaiterSpinAccounting: spin time must only
// accumulate while a waiter is actually executing; a waiter preempted
// mid-spin and force-preempted again during dispatch overhead once
// double-counted its episode.
func TestRegressionPreemptedWaiterSpinAccounting(t *testing.T) {
	eng := sim.NewEngine(3)
	mac := machine.New(machine.Config{NumCPU: 1, ContextSwitch: sim.Millisecond})
	k := New(eng, mac, NewTimeshare(), Config{Quantum: 10 * sim.Millisecond, QuantumJitter: -1})
	l := NewSpinLock("l")
	k.SpawnResumable("holder", 1, 0, Script(Acquire(l), Compute(40*sim.Millisecond), release(l)))
	waiter := k.SpawnResumable("waiter", 1, 0, Script(Acquire(l), release(l)))
	end := eng.RunUntilIdle()
	// The waiter can never have spun longer than the total elapsed time.
	if waiter.Stats.SpinTime > sim.Duration(end) {
		t.Errorf("spin %v exceeds elapsed %v: double-counted episodes", waiter.Stats.SpinTime, sim.Duration(end))
	}
	if waiter.Stats.SpinTime > waiter.Stats.CPUTime {
		t.Errorf("spin %v exceeds CPU time %v", waiter.Stats.SpinTime, waiter.Stats.CPUTime)
	}
}

// TestRegressionSleepForWhilePreempted: a SleepFor expiry racing a
// preemption epoch must neither lose the process nor wake it twice.
func TestRegressionSleepForWhilePreempted(t *testing.T) {
	k := testKernel(1)
	wakes := 0
	for i := 0; i < 4; i++ {
		d := sim.Duration(i+1) * 10 * sim.Millisecond
		k.SpawnResumable("p", 1, 0, Script(repeat(5,
			Compute(7*sim.Millisecond),
			SleepFor(d),
			func(*Env) { wakes++ },
		)...))
	}
	k.Engine().RunUntilIdle()
	if wakes != 20 {
		t.Errorf("wakes = %d, want 20", wakes)
	}
	if k.Live() != 0 {
		t.Errorf("%d processes leaked", k.Live())
	}
}
