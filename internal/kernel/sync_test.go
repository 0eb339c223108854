package kernel

import (
	"testing"

	"procctl/internal/sim"
)

func TestSpinLockMutualExclusion(t *testing.T) {
	// N processes increment a shared counter inside the lock; an
	// in-critical-section flag catches any overlap.
	k := testKernel(4)
	l := NewSpinLock("l")
	inside := false
	count := 0
	for i := 0; i < 8; i++ {
		k.Spawn("p", 1, 0, func(env *Env) {
			for j := 0; j < 5; j++ {
				env.Acquire(l)
				if inside {
					t.Error("two processes inside the critical section")
				}
				inside = true
				env.Compute(3 * sim.Millisecond)
				count++
				inside = false
				env.Release(l)
				env.Compute(sim.Millisecond)
			}
		})
	}
	k.Engine().RunUntilIdle()
	k.Shutdown()
	if count != 40 {
		t.Errorf("count = %d, want 40", count)
	}
}

func TestSpinningBurnsCPU(t *testing.T) {
	// One holder keeps the lock for 50 ms; a waiter on another CPU
	// spins the whole time, so its CPUTime ≈ SpinTime ≈ 50 ms.
	k := testKernel(2)
	l := NewSpinLock("l")
	k.Spawn("holder", 1, 0, func(env *Env) {
		env.Acquire(l)
		env.Compute(50 * sim.Millisecond)
		env.Release(l)
	})
	waiter := k.Spawn("waiter", 1, 0, func(env *Env) {
		env.Acquire(l)
		env.Release(l)
	})
	k.Engine().RunUntilIdle()
	k.Shutdown()
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
	l := NewSpinLock("l")
	k.Spawn("p", 1, 0, func(env *Env) {
		env.Acquire(l)
		env.Release(l)
		at = env.Now()
	})
	k.Engine().RunUntilIdle()
	k.Shutdown()
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
	l := NewSpinLock("l")
	var releaseAt sim.Time
	k.Spawn("holder", 1, 0, func(env *Env) {
		env.Acquire(l)
		env.Compute(150 * sim.Millisecond) // > quantum: preempted inside CS
		env.Release(l)
		releaseAt = env.Now()
	})
	waiter := k.Spawn("waiter", 1, 0, func(env *Env) {
		env.Compute(sim.Millisecond)
		env.Acquire(l)
		env.Release(l)
	})
	k.Engine().RunUntilIdle()
	k.Shutdown()
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
	l := NewSpinLock("l")
	var got []PID
	k.Spawn("holder", 1, 0, func(env *Env) {
		env.Acquire(l)
		env.Compute(20 * sim.Millisecond)
		env.Release(l)
	})
	for i := 0; i < 3; i++ {
		d := sim.Duration(i+1) * sim.Millisecond
		k.Spawn("w", 1, 0, func(env *Env) {
			env.Compute(d)
			env.Acquire(l)
			got = append(got, env.Proc().ID())
			env.Release(l)
		})
	}
	k.Engine().RunUntilIdle()
	k.Shutdown()
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
	l := NewSpinLock("l")
	acquired := false
	k.Spawn("holder", 1, 0, func(env *Env) {
		env.Acquire(l)
		env.Compute(150 * sim.Millisecond)
		env.Release(l)
		// Keep the CPU busy past the release so the preempted waiter
		// can only get the lock after being redispatched.
		env.Compute(30 * sim.Millisecond)
	})
	k.Spawn("waiter", 1, 0, func(env *Env) {
		env.Acquire(l)
		acquired = true
		env.Release(l)
	})
	k.Engine().RunUntilIdle()
	k.Shutdown()
	if !acquired {
		t.Error("preempted waiter never acquired the lock")
	}
}

func TestSpinLockStats(t *testing.T) {
	k := testKernel(1)
	l := NewSpinLock("stats")
	k.Spawn("p", 1, 0, func(env *Env) {
		for i := 0; i < 3; i++ {
			env.Acquire(l)
			env.Compute(10 * sim.Millisecond)
			env.Release(l)
		}
	})
	k.Engine().RunUntilIdle()
	k.Shutdown()
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
	outer, inner := NewSpinLock("outer"), NewSpinLock("inner")
	done := 0
	for i := 0; i < 4; i++ {
		k.Spawn("p", 1, 0, func(env *Env) {
			env.Acquire(outer)
			env.Compute(sim.Millisecond)
			env.Acquire(inner)
			env.Compute(sim.Millisecond)
			if env.Proc().lockDepth != 2 {
				t.Errorf("lockDepth = %d inside nested CS", env.Proc().lockDepth)
			}
			env.Release(inner)
			env.Release(outer)
			done++
		})
	}
	k.Engine().RunUntilIdle()
	k.Shutdown()
	if done != 4 {
		t.Errorf("done = %d", done)
	}
}

func TestWaitQueueStats(t *testing.T) {
	k := testKernel(2)
	q := NewWaitQueue("wq")
	k.Spawn("s", 1, 0, func(env *Env) { env.Sleep(q) })
	k.Spawn("w", 1, 0, func(env *Env) {
		env.Compute(sim.Millisecond)
		env.Wake(q, 1)
	})
	k.Engine().RunUntilIdle()
	k.Shutdown()
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
	l := NewSpinLock("l")
	var holderSeen *Process
	p := k.Spawn("p", 1, 0, func(env *Env) {
		env.Acquire(l)
		env.Compute(10 * sim.Millisecond)
		env.Release(l)
	})
	k.Spawn("obs", 1, 0, func(env *Env) {
		env.Compute(5 * sim.Millisecond)
		holderSeen = l.Holder()
	})
	k.Engine().RunUntilIdle()
	k.Shutdown()
	if holderSeen != p {
		t.Errorf("Holder() = %v, want %v", holderSeen, p)
	}
	if l.Holder() != nil {
		t.Error("lock still held at end")
	}
}

// WaitQueue pops by advancing a head index; wake order must stay strict
// arrival order across interleaved sleeps, wakes and removals.
func TestWaitQueuePopsInArrivalOrder(t *testing.T) {
	q := NewWaitQueue("q")
	var want []*Process // reference FIFO
	var id PID
	add := func(n int) {
		for i := 0; i < n; i++ {
			id++
			p := &Process{id: id}
			q.add(p)
			want = append(want, p)
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			got := q.pop()
			if len(want) == 0 {
				if got != nil {
					t.Fatalf("pop on an empty queue returned %v", got)
				}
				continue
			}
			if got != want[0] {
				t.Fatalf("pop returned pid %d, want %d", got.id, want[0].id)
			}
			want = want[1:]
		}
		if q.Len() != len(want) {
			t.Fatalf("Len() = %d, want %d", q.Len(), len(want))
		}
	}
	add(4)
	pop(2)
	add(3)
	// Remove one from the middle of the live window and one already
	// popped (must be refused).
	gone := want[1]
	if !q.remove(gone) {
		t.Fatal("remove of a sleeper failed")
	}
	want = append(want[:1:1], want[2:]...)
	if q.remove(gone) || q.remove(&Process{id: 1}) {
		t.Error("remove of a process not on the queue succeeded")
	}
	pop(10) // drains
	if q.head != 0 || len(q.procs) != 0 {
		t.Errorf("drained queue did not rewind: head %d, len %d", q.head, len(q.procs))
	}
	add(2)
	last := want[1]
	pop(1)
	if !q.remove(last) || q.Len() != 0 || q.pop() != nil {
		t.Errorf("removing the last sleeper left Len %d", q.Len())
	}
	want = nil
	add(1) // a queue emptied by removal still works
	pop(1)
	if q.Sleeps != 10 || q.Wakes != 8 {
		t.Errorf("sleeps=%d wakes=%d, want 10 and 8 (removals are not wakes)", q.Sleeps, q.Wakes)
	}
}
