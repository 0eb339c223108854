package kernel

import (
	"errors"
	"strings"
	"testing"

	"procctl/internal/sim"
)

// script is a resumable body that returns the given requests one per
// resume, then Exit; it counts its resumes and notes the last one's time.
type script struct {
	reqs    []Request
	resumes int
	last    sim.Time
}

func (s *script) step(env *Env) Request {
	s.resumes++
	s.last = env.Now()
	if s.resumes > len(s.reqs) {
		return Exit()
	}
	return s.reqs[s.resumes-1]
}

// Kill of a process, whatever it is doing, never calls its body again —
// there is nothing to unwind — and leaves its locks and queues clean.
func TestKillNeverResumesAResumableBody(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func(t *testing.T, k *Kernel, victim *Process, l *SpinLock, q *WaitQueue)
		reqs  func(l *SpinLock, q *WaitQueue) []Request
		holds bool // the victim takes l before its first request
		held  bool // a peer holds l for the whole run
	}{
		{name: "while computing",
			reqs: func(*SpinLock, *WaitQueue) []Request { return []Request{Compute(sim.Second)} },
			check: func(t *testing.T, k *Kernel, victim *Process, _ *SpinLock, _ *WaitQueue) {
				if victim.Stats.CPUTime != 10*sim.Millisecond {
					t.Errorf("victim ran %v before the kill, want 10ms", victim.Stats.CPUTime)
				}
			}},
		{name: "while spinning on a held lock", held: true,
			reqs: func(l *SpinLock, _ *WaitQueue) []Request { return []Request{Acquire(l)} },
			check: func(t *testing.T, k *Kernel, victim *Process, l *SpinLock, _ *WaitQueue) {
				if l.waiters.Len() != 0 {
					t.Errorf("the corpse is still on the waiter list: %v", l.waiters.items())
				}
				if l.Acquires != 1 || l.Holder() != nil || victim.Stats.LockAcquires != 0 {
					t.Errorf("lock acquires=%d holder=%v: the peer's release granted it to the corpse", l.Acquires, l.Holder())
				}
				if victim.Stats.SpinTime != 10*sim.Millisecond {
					t.Errorf("victim spun %v, want 10ms", victim.Stats.SpinTime)
				}
			}},
		{name: "while asleep",
			reqs: func(_ *SpinLock, q *WaitQueue) []Request { return []Request{Sleep(q)} },
			check: func(t *testing.T, k *Kernel, _ *Process, _ *SpinLock, q *WaitQueue) {
				if q.Len() != 0 || k.WakeQueue(q, 1) != 0 {
					t.Error("the corpse is still on the wait queue")
				}
			}},
		{name: "while in a timed sleep",
			reqs: func(*SpinLock, *WaitQueue) []Request { return []Request{SleepFor(sim.Second)} },
			check: func(t *testing.T, k *Kernel, victim *Process, _ *SpinLock, _ *WaitQueue) {
				if victim.sleepEv.Valid() {
					t.Error("the dead sleeper's timer is still pending")
				}
			}},
		{name: "while holding a lock", holds: true,
			reqs: func(*SpinLock, *WaitQueue) []Request { return []Request{Compute(sim.Second)} },
			check: func(t *testing.T, k *Kernel, _ *Process, l *SpinLock, _ *WaitQueue) {
				if l.ForcedReleases != 1 || l.Holder() != nil {
					t.Errorf("forced releases = %d, holder = %v, want 1 and nobody", l.ForcedReleases, l.Holder())
				}
				if got := k.MetricsSnapshot().Get(MetricForcedReleases); got == nil || got.Value != 1 {
					t.Errorf("kernel-wide forced-release counter = %v, want 1", got)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel(2)
			l, q := NewSpinLock("l"), NewWaitQueue("q")
			if tc.held {
				k.SpawnResumable("holder", 1, 0, (&script{reqs: []Request{Compute(50 * sim.Millisecond)}}).holding(l, t))
			}
			body := &script{reqs: tc.reqs(l, q)}
			resume := body.step
			if tc.holds {
				resume = body.holding(l, t)
			}
			victim := k.SpawnResumable("victim", 1, 0, resume)
			k.Engine().Schedule(sim.Time(10*sim.Millisecond), func() {
				if !k.Kill(victim) {
					t.Error("Kill = false")
				}
			})
			k.Engine().RunUntilIdle()
			if body.resumes != 1 {
				t.Errorf("resume was called %d times, want once (before the kill, never after)", body.resumes)
			}
			if victim.State() != Exited || !victim.killed || k.Live() != 0 {
				t.Errorf("end state: %v, killed=%v, live=%d", victim, victim.killed, k.Live())
			}
			tc.check(t, k, victim, l, q)
		})
	}
}

// holding wraps the script so that its first resume takes l (which must
// be free) and its last — the one that returns Exit — releases it.
func (s *script) holding(l *SpinLock, t *testing.T) func(*Env) Request {
	return func(env *Env) Request {
		if s.resumes == 0 && !env.TryAcquire(l) {
			t.Errorf("%v: lock %s not free at first resume", env.Proc(), l.Name())
		}
		r := s.step(env)
		if r.kind == reqExit {
			env.Release(l)
		}
		return r
	}
}

// Stall and Preempt in the middle of a Compute fold the progress into
// computeLeft; the body is not resumed until the whole request is done.
func TestStallAndPreemptPreserveComputeLeftOfAResumableBody(t *testing.T) {
	k := testKernel(1)
	body := &script{reqs: []Request{Compute(100 * sim.Millisecond)}}
	p := k.SpawnResumable("p", 1, 0, body.step)
	eng := k.Engine()
	eng.Schedule(sim.Time(30*sim.Millisecond), func() {
		k.Preempt(p)
		if p.computeLeft != 70*sim.Millisecond || p.computing {
			t.Errorf("after Preempt at 30ms: %s", p.debugPending())
		}
	})
	eng.Schedule(sim.Time(50*sim.Millisecond), func() {
		if !k.Stall(p, 25*sim.Millisecond) {
			t.Error("Stall = false")
		}
		if p.computeLeft != 50*sim.Millisecond || p.State() != Blocked {
			t.Errorf("after Stall at 50ms: %s, %v", p.debugPending(), p.State())
		}
	})
	eng.RunUntilIdle()
	if body.resumes != 2 {
		t.Errorf("resume was called %d times, want 2 (the Compute, then Exit)", body.resumes)
	}
	// 100 ms of CPU plus the 25 ms frozen.
	if body.last != sim.Time(125*sim.Millisecond) {
		t.Errorf("the Compute was done at %v, want 125ms", body.last)
	}
	if p.Stats.CPUTime != 100*sim.Millisecond || p.Stats.Preemptions != 2 {
		t.Errorf("CPU time %v, %d preemptions, want 100ms and 2", p.Stats.CPUTime, p.Stats.Preemptions)
	}
}

// A panic inside resume is already on the engine's goroutine: it comes
// out of Engine.Run with its value, at the instant it happened.
func TestResumePanicSurfacesFromEngineRun(t *testing.T) {
	errBoom := errors.New("boom")
	k := testKernel(1)
	n := 0
	k.SpawnResumable("buggy", 1, 0, func(*Env) Request {
		if n++; n == 2 {
			panic(errBoom)
		}
		return Compute(sim.Millisecond)
	})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		k.Engine().RunUntilIdle()
	}()
	if recovered != errBoom {
		t.Fatalf("Engine.Run recovered %v, want %v", recovered, errBoom)
	}
	if now := k.Now(); now != sim.Time(sim.Millisecond) {
		t.Errorf("panic surfaced at %v, want 1ms", now)
	}
}

// A panic in a body comes out of Engine.Run, on the goroutine that
// drives the simulation, with the value the body panicked with, while
// another process is still live.
func TestBodyPanicSurfacesFromEngineRun(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		value any
	}{{"string", "x"}, {"error", errBoom}} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel(2)
			k.SpawnResumable("bystander", 1, 0, Script(Compute(sim.Second)))
			k.SpawnResumable("buggy", 1, 0, Script(Compute(sim.Millisecond), func(*Env) { panic(tc.value) }))
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				k.Engine().RunUntilIdle()
			}()
			if recovered != tc.value {
				t.Fatalf("Engine.Run recovered %v, want %v", recovered, tc.value)
			}
			if now := k.Now(); now != sim.Time(sim.Millisecond) {
				t.Errorf("panic surfaced at %v, want the instant of the panic, 1ms", now)
			}
		})
	}
}

// Exit while holding a lock is the same model bug, reported by the same
// panic, whether the body is a Script or a hand-written resumable body.
func TestExitHoldingALockPanicsForBothBodyForms(t *testing.T) {
	exitPanic := func(body func(l *SpinLock) func(*Env) Request) string {
		k := testKernel(1)
		k.SpawnResumable("p", 1, 0, body(NewSpinLock("l")))
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			k.Engine().RunUntilIdle()
		}()
		msg, _ := recovered.(string)
		return msg
	}
	sc := exitPanic(func(l *SpinLock) func(*Env) Request { return Script(Acquire(l)) })
	rs := exitPanic(func(l *SpinLock) func(*Env) Request {
		return func(env *Env) Request {
			env.TryAcquire(l)
			return Exit()
		}
	})
	if !strings.Contains(sc, "exited holding 1 lock(s)") || rs != sc {
		t.Errorf("script body panicked with %q, hand-written body with %q, want the same exit panic", sc, rs)
	}
}
