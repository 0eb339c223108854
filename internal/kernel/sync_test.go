package kernel

import (
	"testing"

	"procctl/internal/sim"
)

func TestSpinLockMutualExclusion(t *testing.T) {
	// N processes increment a shared counter inside the lock; an
	// in-critical-section flag catches any overlap.
	k := testKernel(4)
	l := k.NewSpinLock("l")
	inside := false
	count := 0
	for i := 0; i < 8; i++ {
		k.SpawnResumable("p", 1, 0, Script(repeat(5,
			Acquire(l),
			func(*Env) {
				if inside {
					t.Error("two processes inside the critical section")
				}
				inside = true
			},
			Compute(3*sim.Millisecond),
			func(*Env) {
				count++
				inside = false
			},
			release(l),
			Compute(sim.Millisecond),
		)...))
	}
	k.Engine().RunUntilIdle()
	if count != 40 {
		t.Errorf("count = %d, want 40", count)
	}
}

func TestSpinningBurnsCPU(t *testing.T) {
	// One holder keeps the lock for 50 ms; a waiter on another CPU
	// spins the whole time, so its CPUTime ≈ SpinTime ≈ 50 ms.
	k := testKernel(2)
	l := k.NewSpinLock("l")
	k.SpawnResumable("holder", 1, 0, Script(Acquire(l), Compute(50*sim.Millisecond), release(l)))
	waiter := k.SpawnResumable("waiter", 1, 0, Script(Acquire(l), release(l)))
	k.Engine().RunUntilIdle()
	if waiter.Stats.SpinTime < 45*sim.Millisecond {
		t.Errorf("waiter spin time %v, want ≈50ms", waiter.Stats.SpinTime)
	}
	if waiter.Stats.CPUTime < waiter.Stats.SpinTime {
		t.Errorf("spin time %v exceeds CPU time %v", waiter.Stats.SpinTime, waiter.Stats.CPUTime)
	}
	if l.Contended != 1 {
		t.Errorf("Contended = %d, want 1", l.Contended)
	}
}

func TestUncontendedAcquireIsInstant(t *testing.T) {
	k := testKernel(1)
	var at sim.Time
	l := k.NewSpinLock("l")
	k.SpawnResumable("p", 1, 0, Script(Acquire(l), release(l), func(env *Env) { at = env.Now() }))
	k.Engine().RunUntilIdle()
	if at != 0 {
		t.Errorf("uncontended acquire/release took %v", at)
	}
	if l.Acquires != 1 || l.Contended != 0 {
		t.Errorf("acquires=%d contended=%d", l.Acquires, l.Contended)
	}
}

func TestPreemptedHolderStallsWaiters(t *testing.T) {
	// The paper's core pathology on one CPU: the holder is preempted
	// mid-critical-section (by quantum expiry), and the waiter that
	// replaces it spins its entire quantum before the holder can finish.
	k := testKernel(1)
	l := k.NewSpinLock("l")
	var releaseAt sim.Time
	k.SpawnResumable("holder", 1, 0, Script(
		Acquire(l),
		Compute(150*sim.Millisecond), // > quantum: preempted inside CS
		release(l),
		func(env *Env) { releaseAt = env.Now() },
	))
	waiter := k.SpawnResumable("waiter", 1, 0, Script(Compute(sim.Millisecond), Acquire(l), release(l)))
	k.Engine().RunUntilIdle()
	// Holder runs [0,100), waiter runs [100,...): 1 ms of work then
	// pure spinning until its quantum ends at 200 ms, holder finishes
	// its remaining 50 ms at 250 ms.
	if releaseAt != sim.Time(250*sim.Millisecond) {
		t.Errorf("lock released at %v, want 250ms", releaseAt)
	}
	if waiter.Stats.SpinTime < 90*sim.Millisecond {
		t.Errorf("waiter spun %v, want ≈99ms (a wasted quantum)", waiter.Stats.SpinTime)
	}
}

func TestLockHandoffToEarliestActiveWaiter(t *testing.T) {
	// Three waiters arrive in a known order on separate CPUs; the
	// release must grant the earliest.
	k := testKernel(4)
	l := k.NewSpinLock("l")
	var got []PID
	k.SpawnResumable("holder", 1, 0, Script(Acquire(l), Compute(20*sim.Millisecond), release(l)))
	for i := 0; i < 3; i++ {
		d := sim.Duration(i+1) * sim.Millisecond
		k.SpawnResumable("w", 1, 0, Script(
			Compute(d),
			Acquire(l),
			func(env *Env) { got = append(got, env.Proc().ID()) },
			release(l),
		))
	}
	k.Engine().RunUntilIdle()
	if len(got) != 3 {
		t.Fatalf("%d acquisitions, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Errorf("handoff order %v not FIFO by arrival", got)
		}
	}
}

func TestPreemptedWaiterKeepsPlaceButMissesReleases(t *testing.T) {
	// A waiter preempted mid-spin cannot win the lock while off-CPU
	// (only running processes observe the release), but re-acquires
	// once redispatched.
	k := testKernel(1)
	l := k.NewSpinLock("l")
	acquired := false
	k.SpawnResumable("holder", 1, 0, Script(
		Acquire(l),
		Compute(150*sim.Millisecond),
		release(l),
		// Keep the CPU busy past the release so the preempted waiter
		// can only get the lock after being redispatched.
		Compute(30*sim.Millisecond),
	))
	k.SpawnResumable("waiter", 1, 0, Script(Acquire(l), func(*Env) { acquired = true }, release(l)))
	k.Engine().RunUntilIdle()
	if !acquired {
		t.Error("preempted waiter never acquired the lock")
	}
}

func TestSpinLockStats(t *testing.T) {
	k := testKernel(1)
	l := k.NewSpinLock("stats")
	k.SpawnResumable("p", 1, 0, Script(repeat(3, Acquire(l), Compute(10*sim.Millisecond), release(l))...))
	k.Engine().RunUntilIdle()
	if l.Acquires != 3 {
		t.Errorf("Acquires = %d", l.Acquires)
	}
	if l.HeldTime != 30*sim.Millisecond {
		t.Errorf("HeldTime = %v, want 30ms", l.HeldTime)
	}
	if l.Name() != "stats" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestNestedLocks(t *testing.T) {
	k := testKernel(2)
	outer, inner := k.NewSpinLock("outer"), k.NewSpinLock("inner")
	done := 0
	for i := 0; i < 4; i++ {
		k.SpawnResumable("p", 1, 0, Script(
			Acquire(outer),
			Compute(sim.Millisecond),
			Acquire(inner),
			Compute(sim.Millisecond),
			func(env *Env) {
				if len(env.Proc().held) != 2 {
					t.Errorf("%d locks held inside nested CS", len(env.Proc().held))
				}
			},
			release(inner),
			release(outer),
			func(*Env) { done++ },
		))
	}
	k.Engine().RunUntilIdle()
	if done != 4 {
		t.Errorf("done = %d", done)
	}
}

func TestWaitQueueStats(t *testing.T) {
	k := testKernel(2)
	q := NewWaitQueue("wq")
	k.SpawnResumable("s", 1, 0, Script(Sleep(q)))
	k.SpawnResumable("w", 1, 0, Script(Compute(sim.Millisecond), wake(q, 1)))
	k.Engine().RunUntilIdle()
	if q.Sleeps != 1 || q.Wakes != 1 {
		t.Errorf("sleeps=%d wakes=%d", q.Sleeps, q.Wakes)
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d", q.Len())
	}
	if q.Name() != "wq" {
		t.Errorf("Name = %q", q.Name())
	}
}

func TestHolderAccessor(t *testing.T) {
	k := testKernel(2)
	l := k.NewSpinLock("l")
	var holderSeen *Process
	p := k.SpawnResumable("p", 1, 0, Script(Acquire(l), Compute(10*sim.Millisecond), release(l)))
	k.SpawnResumable("obs", 1, 0, Script(
		Compute(5*sim.Millisecond),
		func(*Env) { holderSeen = l.Holder() },
	))
	k.Engine().RunUntilIdle()
	if holderSeen != p {
		t.Errorf("Holder() = %v, want %v", holderSeen, p)
	}
	if l.Holder() != nil {
		t.Error("lock still held at end")
	}
}

// WaitQueue keeps its sleepers in a FIFO; wake order must stay strict
// arrival order across interleaved sleeps, wakes and removals (a fault's
// kill takes its sleeper off the queue without a wake).
func TestWaitQueuePopsInArrivalOrder(t *testing.T) {
	q := NewWaitQueue("q")
	var want []*Process // reference FIFO
	var id PID
	add := func(n int) {
		for ; n > 0; n-- {
			id++
			want = append(want, &Process{id: id})
			q.add(want[len(want)-1])
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			var front *Process
			if len(want) > 0 {
				front, want = want[0], want[1:]
			}
			if got := q.pop(); got != front {
				t.Fatalf("pop returned %v, want %v", got, front)
			}
		}
		if q.Len() != len(want) {
			t.Fatalf("Len() = %d, want %d", q.Len(), len(want))
		}
	}
	add(4)
	pop(2)
	add(3)
	// Remove one from the middle and one already popped (refused).
	if gone := want[1]; !q.procs.remove(gone) || q.procs.remove(gone) || q.procs.remove(&Process{id: 1}) {
		t.Fatal("remove of a sleeper failed, or of a process not on the queue succeeded")
	}
	want = append(want[:1:1], want[2:]...)
	pop(10) // drains, then pops an empty queue
	add(2)
	last := want[1]
	pop(1)
	if !q.procs.remove(last) || q.Len() != 0 || q.pop() != nil {
		t.Errorf("removing the last sleeper left Len %d", q.Len())
	}
	want = nil
	add(1) // a queue emptied by removal still works
	pop(1)
	if q.Sleeps != 10 || q.Wakes != 8 {
		t.Errorf("sleeps=%d wakes=%d, want 10 and 8 (removals are not wakes)", q.Sleeps, q.Wakes)
	}
}
