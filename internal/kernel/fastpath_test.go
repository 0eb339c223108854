package kernel

import (
	"strings"
	"testing"

	"procctl/internal/sim"
)

// Requests that take no virtual time are performed by the body: an
// uncontended Acquire/Release/Wake sequence costs no rendezvous at all,
// a contended Acquire exactly one.
func TestZeroTimeRequestsSkipTheRendezvous(t *testing.T) {
	k := testKernel(2)
	l, held := k.NewSpinLock("free"), k.NewSpinLock("held")
	q := NewWaitQueue("q")
	var uncontended, contended, atRelease uint64
	k.SpawnResumable("sleeper", 1, 0, Script(Sleep(q)))
	k.SpawnResumable("holder", 1, 0, Script(
		Acquire(held),
		Compute(10*sim.Millisecond),
		func(*Env) { atRelease = k.rendezvous },
		release(held),
	))
	var before uint64
	k.SpawnResumable("p", 1, 0, Script(
		Compute(sim.Millisecond), // sleeper asleep, holder inside its critical section
		func(*Env) { before = k.rendezvous },
		Acquire(l), release(l),
		Acquire(l), release(l),
		Acquire(l), release(l),
		wake(q, 1),
		wake(q, 1), // nobody left: still no rendezvous
		func(*Env) {
			uncontended = k.rendezvous - before
			before = k.rendezvous
		},
		Acquire(held), // spins for 9 ms: virtual time must pass
		func(*Env) {
			// The holder's Compute returning is the one rendezvous that
			// is not ours; from its Release to our holding the lock there
			// is exactly one, the continuation after the grant.
			if atRelease-before != 1 {
				t.Errorf("%d rendezvous before the holder's Release, want 1 (its Compute returning)", atRelease-before)
			}
			contended = k.rendezvous - atRelease
		},
		release(held),
	))
	k.Engine().RunUntilIdle()
	if uncontended != 0 {
		t.Errorf("uncontended Acquire/Release/Wake sequence made %d rendezvous, want 0", uncontended)
	}
	if contended != 1 {
		t.Errorf("contended Acquire made %d rendezvous, want exactly 1", contended)
	}
	if l.Acquires != 3 || held.Acquires != 2 || held.Contended != 1 {
		t.Errorf("lock stats: free %d acquires, held %d acquires / %d contended", l.Acquires, held.Acquires, held.Contended)
	}
	if q.Wakes != 1 || k.Live() != 0 {
		t.Errorf("wakes = %d, live = %d: the inline Wake did not resume the sleeper", q.Wakes, k.Live())
	}
}

// The hooks of an inline request fire at the same instant, with the
// same arguments, as when the engine performed it.
func TestInlineRequestsFireHooks(t *testing.T) {
	k := testKernel(1)
	l := k.NewSpinLock("l")
	var log []string
	k.OnLockAcquire = func(p *Process, l *SpinLock, spun sim.Duration) {
		log = append(log, "acquire@"+k.Now().String()+" spun="+spun.String())
	}
	k.OnLockRelease = func(p *Process, l *SpinLock, held sim.Duration, forced bool) {
		log = append(log, "release@"+k.Now().String()+" held="+held.String())
	}
	k.SpawnResumable("p", 1, 0, Script(
		Compute(2*sim.Millisecond),
		Acquire(l),
		func(env *Env) {
			if !env.Proc().HoldingLocks() || l.Holder() != env.Proc() {
				t.Error("inline Acquire did not make the process the holder")
			}
		},
		Compute(3*sim.Millisecond),
		func(env *Env) {
			env.Release(l)
			if env.Proc().HoldingLocks() || l.Holder() != nil {
				t.Error("inline Release left the lock held")
			}
		},
	))
	k.Engine().RunUntilIdle()
	want := "acquire@" + sim.Time(2*sim.Millisecond).String() + " spun=" + sim.Duration(0).String() +
		" release@" + sim.Time(5*sim.Millisecond).String() + " held=" + (3 * sim.Millisecond).String()
	if got := strings.Join(log, " "); got != want {
		t.Errorf("hooks saw %q, want %q", got, want)
	}
	if l.HeldTime != 3*sim.Millisecond {
		t.Errorf("HeldTime = %v, want 3ms", l.HeldTime)
	}
}

// Releasing a lock the process does not hold is a model bug, detected
// in the body; like every body panic it must come out of Engine.Run,
// where a driver can see it (resumable_test.go has the general case).
func TestReleaseOfUnheldLockPanicsOnEngineGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		holder bool // somebody else holds the lock
	}{{"free lock", false}, {"lock held by a peer", true}} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel(2)
			l := k.NewSpinLock("l")
			if tc.holder {
				k.SpawnResumable("holder", 1, 0, Script(Acquire(l), Compute(sim.Second), release(l)))
			}
			k.SpawnResumable("buggy", 1, 0, Script(
				Compute(sim.Millisecond),
				func(env *Env) {
					env.Release(l)
					t.Error("Release of an unheld lock returned")
				},
			))
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				k.Engine().RunUntilIdle()
			}()
			msg, _ := recovered.(string)
			if !strings.Contains(msg, "releasing") || !strings.Contains(msg, `"l"`) {
				t.Fatalf("Engine.Run recovered %v, want the kernel's release panic", recovered)
			}
		})
	}
}

// A lock taken inline is tracked like any other: when an engine event
// kills the holder while a peer spins on the lock, the kernel
// force-releases it and grants it to the spinner at the kill instant.
func TestKillHolderOfInlineLockGrantsToSpinner(t *testing.T) {
	k := testKernel(2)
	outer, inner := k.NewSpinLock("outer"), k.NewSpinLock("inner")
	var peerGot, peerDone sim.Time
	victim := k.SpawnResumable("victim", 1, 0, Script(
		Acquire(outer), // both free: taken in the body
		Acquire(inner),
		Compute(3600*sim.Second),
	))
	peer := k.SpawnResumable("peer", 1, 0, Script(
		Compute(sim.Millisecond),
		Acquire(inner), // held: spins through the engine
		func(env *Env) { peerGot = env.Now() },
		Acquire(outer), // freed by the same kill: inline again
		Compute(sim.Millisecond),
		release(outer),
		release(inner),
		func(env *Env) { peerDone = env.Now() },
	))
	k.Engine().Schedule(sim.Time(20*sim.Millisecond), func() {
		if len(victim.held) != 2 {
			t.Errorf("victim tracks %d held locks before the kill, want 2", len(victim.held))
		}
		if peer.waitingLock == nil || peer.debugPending() != "acquire(inner)" {
			t.Errorf("peer pending %q spinning=%v, want a spin on inner", peer.debugPending(), peer.waitingLock != nil)
		}
		k.Kill(victim)
	})
	k.Engine().RunUntilIdle()
	if inner.ForcedReleases != 1 || outer.ForcedReleases != 1 {
		t.Errorf("forced releases inner=%d outer=%d, want 1 each", inner.ForcedReleases, outer.ForcedReleases)
	}
	if peerGot != sim.Time(20*sim.Millisecond) {
		t.Errorf("peer won the lock at %v, want the kill instant 20ms", peerGot)
	}
	if peerDone != sim.Time(21*sim.Millisecond) {
		t.Errorf("peer finished at %v, want 21ms", peerDone)
	}
	if peer.Stats.SpinTime != 19*sim.Millisecond {
		t.Errorf("peer spun %v, want 19ms", peer.Stats.SpinTime)
	}
	if inner.Holder() != nil || outer.Holder() != nil || k.Live() != 0 {
		t.Errorf("end state: inner=%v outer=%v live=%d", inner.Holder(), outer.Holder(), k.Live())
	}
}
