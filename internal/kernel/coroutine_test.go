package kernel

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"procctl/internal/sim"
)

// A panic in a body comes out of Engine.Run, on the goroutine that
// drives the simulation, with the value the body panicked with — not
// out of a goroutine nobody can recover on.
func TestBodyPanicSurfacesFromEngineRun(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		value any
	}{{"string", "x"}, {"error", errBoom}} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel(2)
			k.Spawn("bystander", 1, 0, func(env *Env) { env.Compute(sim.Second) })
			k.Spawn("buggy", 1, 0, func(env *Env) {
				env.Compute(sim.Millisecond)
				panic(tc.value)
			})
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
			k.Shutdown() // the bystander still unwinds
		})
	}
}

// liveCoroutines counts the goroutines that are process bodies: the
// ones iter.Pull created. (Comparing runtime.NumGoroutine with a
// baseline also counts the goroutine of the previous subtest, which the
// testing package lets exit in its own time: one run in ten failed on
// it under -race.)
func liveCoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by iter.Pull"))
}

// Every way a process can end gives its coroutine's goroutine back
// before control returns to the driver: nothing is left to a later
// scheduling round, so the count is exact.
func TestProcessGoroutinesAreReclaimed(t *testing.T) {
	forever := func(env *Env) { env.Compute(3600 * sim.Second) }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, k *Kernel)
	}{
		{"run then Shutdown", func(t *testing.T, k *Kernel) {
			q := NewWaitQueue("q")
			k.Spawn("blocked", 1, 0, func(env *Env) { env.Sleep(q) })
			k.Spawn("running", 1, 0, forever)
			k.Spawn("runnable", 1, 0, forever)
			k.Engine().Run(sim.Time(sim.Millisecond))
			k.Spawn("never started", 1, 0, forever)
			if n := liveCoroutines(); n != 4 {
				t.Errorf("counted %d body goroutines for 4 live function bodies", n)
			}
			k.Shutdown()
		}},
		{"normal exits, no Shutdown", func(t *testing.T, k *Kernel) {
			for i := 0; i < 4; i++ {
				k.Spawn("p", 1, 0, func(env *Env) { env.Compute(sim.Millisecond) })
			}
			k.Engine().RunUntilIdle()
			if k.Live() != 0 {
				t.Errorf("%d processes still live", k.Live())
			}
		}},
		{"Kill in every state", func(t *testing.T, k *Kernel) {
			q := NewWaitQueue("q")
			blocked := k.Spawn("blocked", 1, 0, func(env *Env) { env.Sleep(q) })
			timed := k.Spawn("timed sleep", 1, 0, func(env *Env) { env.SleepFor(sim.Second) })
			running := k.Spawn("running", 1, 0, forever)
			runnable := k.Spawn("runnable", 1, 0, forever)
			k.Engine().Run(sim.Time(sim.Millisecond))
			fresh := k.Spawn("never started", 1, 0, forever)
			for _, want := range []struct {
				p     *Process
				state ProcState
			}{{blocked, Blocked}, {timed, Blocked}, {runnable, Runnable}, {fresh, Runnable}, {running, Running}} {
				if want.p.State() != want.state {
					t.Fatalf("%v: want it %v before the kill", want.p, want.state)
				}
				if !k.Kill(want.p) {
					t.Fatalf("Kill(%v) = false", want.p)
				}
			}
			// The two Runnable husks were reaped when the scheduler picked
			// them for the CPU the last kill freed.
			if k.Live() != 0 {
				t.Errorf("%d processes still live", k.Live())
			}
		}},
		{"KillApp", func(t *testing.T, k *Kernel) {
			for i := 0; i < 3; i++ {
				k.Spawn("victim", 7, 0, forever)
			}
			k.Engine().Run(sim.Time(sim.Millisecond))
			if n := k.KillApp(7); n != 3 {
				t.Errorf("KillApp = %d, want 3", n)
			}
			k.Engine().RunUntilIdle()
		}},
		{"Kill of a runnable process, then Shutdown", func(t *testing.T, k *Kernel) {
			k.Spawn("a", 1, 0, forever)
			b := k.Spawn("b", 1, 0, forever)
			k.Engine().Run(sim.Time(sim.Millisecond))
			k.Kill(b)
			k.Shutdown() // the husk was never picked
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, testKernel(1))
			if n := liveCoroutines(); n != 0 {
				t.Errorf("%d body goroutines are left", n)
			}
		})
	}
}

// Kill unwinds the body before it returns: the body's deferred
// functions have run, on the killer's watch and at the kill instant,
// not concurrently with whatever the engine does next.
func TestKillRunsDeferredFunctionsBeforeReturning(t *testing.T) {
	k := testKernel(2)
	q := NewWaitQueue("q")
	var unwound []string
	body := func(name string, block func(env *Env)) {
		k.Spawn(name, 1, 0, func(env *Env) {
			defer func() { unwound = append(unwound, name) }()
			block(env)
			t.Errorf("%s: request returned after the kill", name)
		})
	}
	body("computing", func(env *Env) { env.Compute(sim.Second) })
	body("sleeping", func(env *Env) { env.Sleep(q) })
	k.Engine().Run(sim.Time(sim.Millisecond))
	k.Kill(k.Spawn("never started", 1, 0, func(env *Env) {
		t.Error("a process killed before its body started ran it")
	}))
	for i, p := range k.Processes()[:2] {
		k.Kill(p)
		if len(unwound) != i+1 || unwound[i] != p.Name() {
			t.Fatalf("after Kill(%s): unwound = %v", p.Name(), unwound)
		}
	}
	k.Engine().RunUntilIdle()
	k.Shutdown()
}
