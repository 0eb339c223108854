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

// A resumable body sees the same machine as a function body making the
// same requests: the adapter in Spawn and a hand-written resume function
// are two spellings of one contract.
func TestResumableBodyMatchesFunctionBody(t *testing.T) {
	run := func(resumable bool) (times []sim.Time, fired uint64) {
		k := testKernel(2) // the waker on its own CPU: p is asleep by 40 ms
		l, q := NewSpinLock("l"), NewWaitQueue("q")
		mark := func(env *Env) { times = append(times, env.Now()) }
		k.Spawn("waker", 1, 0, func(env *Env) {
			env.Compute(40 * sim.Millisecond)
			env.Wake(q, 1)
		})
		if resumable {
			pc := 0
			k.SpawnResumable("p", 1, 0, func(env *Env) Request {
				mark(env)
				pc++
				switch pc {
				case 1:
					return Compute(0) // skipped: resumed again at once
				case 2:
					return Compute(3 * sim.Millisecond)
				case 3:
					if !env.TryAcquire(l) {
						t.Error("TryAcquire of a free lock failed")
					}
					return Compute(2 * sim.Millisecond)
				case 4:
					env.Release(l)
					return SleepFor(5 * sim.Millisecond)
				case 5:
					return SleepFor(0) // skipped
				case 6:
					return Yield()
				case 7:
					return Sleep(q)
				}
				return Exit()
			})
		} else {
			k.Spawn("p", 1, 0, func(env *Env) {
				mark(env)
				env.Compute(0)
				mark(env)
				env.Compute(3 * sim.Millisecond)
				mark(env)
				env.Acquire(l)
				env.Compute(2 * sim.Millisecond)
				mark(env)
				env.Release(l)
				env.SleepFor(5 * sim.Millisecond)
				mark(env)
				env.SleepFor(0)
				mark(env)
				env.Yield()
				mark(env)
				env.Sleep(q)
				mark(env)
			})
		}
		k.Engine().RunUntilIdle()
		k.Shutdown()
		if k.Live() != 0 {
			t.Errorf("resumable=%v: %d processes still live", resumable, k.Live())
		}
		return times, k.Engine().Fired()
	}
	fnTimes, fnFired := run(false)
	rsTimes, rsFired := run(true)
	if len(fnTimes) != 8 || len(rsTimes) != len(fnTimes) {
		t.Fatalf("function body marked %d instants, resumable %d, want 8 each", len(fnTimes), len(rsTimes))
	}
	for i := range fnTimes {
		if fnTimes[i] != rsTimes[i] {
			t.Errorf("resume %d: function body at %v, resumable at %v", i, fnTimes[i], rsTimes[i])
		}
	}
	if fnFired != rsFired {
		t.Errorf("engine fired %d events for the function body, %d for the resumable", fnFired, rsFired)
	}
}

// Kill of a resumable process, whatever it is doing, never calls resume
// again — there is nothing to unwind — and leaves locks and queues as a
// killed function body would.
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
				if l.Waiters() != 0 {
					t.Errorf("the corpse is still on the waiter list: %v", l.DebugWaiters())
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
			if n := liveCoroutines(); n != 0 {
				t.Errorf("spawning resumable bodies created %d coroutines", n)
			}
			k.Engine().Schedule(sim.Time(10*sim.Millisecond), func() {
				if !k.Kill(victim) {
					t.Error("Kill = false")
				}
			})
			k.Engine().RunUntilIdle()
			k.Shutdown() // no-op
			if body.resumes != 1 {
				t.Errorf("resume was called %d times, want once (before the kill, never after)", body.resumes)
			}
			if victim.State() != Exited || !victim.Killed() || k.Live() != 0 {
				t.Errorf("end state: %v, killed=%v, live=%d", victim, victim.Killed(), k.Live())
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
			t.Errorf("after Preempt at 30ms: %s", p.DebugPending())
		}
	})
	eng.Schedule(sim.Time(50*sim.Millisecond), func() {
		if !k.Stall(p, 25*sim.Millisecond) {
			t.Error("Stall = false")
		}
		if p.computeLeft != 50*sim.Millisecond || p.State() != Blocked {
			t.Errorf("after Stall at 50ms: %s, %v", p.DebugPending(), p.State())
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

// Exit while holding a lock is the same model bug, reported by the same
// panic, as a function body returning with one held.
func TestExitHoldingALockPanicsForBothBodyForms(t *testing.T) {
	exitPanic := func(spawn func(k *Kernel, l *SpinLock)) string {
		k := testKernel(1)
		spawn(k, NewSpinLock("l"))
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			k.Engine().RunUntilIdle()
		}()
		k.Shutdown()
		msg, _ := recovered.(string)
		return msg
	}
	fn := exitPanic(func(k *Kernel, l *SpinLock) {
		k.Spawn("p", 1, 0, func(env *Env) { env.Acquire(l) })
	})
	rs := exitPanic(func(k *Kernel, l *SpinLock) {
		k.SpawnResumable("p", 1, 0, func(env *Env) Request {
			env.TryAcquire(l)
			return Exit()
		})
	})
	if !strings.Contains(fn, "exited holding 1 lock(s)") || rs != fn {
		t.Errorf("function body panicked with %q, resumable with %q, want the same exit panic", fn, rs)
	}
}

// A resumable body returns its blocking requests; calling one on the Env
// is a model bug with a message that says so.
func TestBlockingEnvCallFromResumableBodyPanics(t *testing.T) {
	k := testKernel(1)
	k.SpawnResumable("confused", 1, 0, func(env *Env) Request {
		env.Compute(sim.Millisecond)
		return Exit()
	})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		k.Engine().RunUntilIdle()
	}()
	if msg, _ := recovered.(string); !strings.Contains(msg, "resumable body") {
		t.Fatalf("Engine.Run recovered %v, want the resumable-body panic", recovered)
	}
}

// Shutdown has nothing to unwind for a resumable body: a process cut off
// by the horizon is left exactly where it was, and is not resumed.
func TestShutdownLeavesResumableBodiesAlone(t *testing.T) {
	k := testKernel(1)
	body := &script{reqs: []Request{Compute(sim.Second)}}
	p := k.SpawnResumable("p", 1, 0, body.step)
	k.Engine().Run(sim.Time(10 * sim.Millisecond))
	k.Shutdown()
	if body.resumes != 1 || p.State() != Running || p.DebugPending() != "compute(left=1.000s, computing=true)" {
		t.Errorf("after Shutdown: %d resumes, %v, pending %s", body.resumes, p, p.DebugPending())
	}
}
