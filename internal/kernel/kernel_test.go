package kernel

import (
	"strings"
	"testing"

	"procctl/internal/machine"
	"procctl/internal/sim"
)

// testKernel builds a kernel on a small frictionless machine (no cache,
// no switch cost, no jitter) so tests can assert exact times.
func testKernel(ncpu int) *Kernel {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: ncpu})
	return New(eng, mac, NewTimeshare(), Config{Quantum: 100 * sim.Millisecond, QuantumJitter: -1})
}

// testKernelPolicy is testKernel with a specific policy.
func testKernelPolicy(ncpu int, pol Policy, cfg Config) *Kernel {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: ncpu})
	return New(eng, mac, pol, cfg)
}

// release and wake are Script steps for the requests a body performs
// itself; repeat lays steps out n times over, for a body that loops.
func release(l *SpinLock) func(*Env) { return func(e *Env) { e.Release(l) } }

func wake(q *WaitQueue, n int) func(*Env) { return func(e *Env) { e.Wake(q, n) } }

func repeat(n int, steps ...any) []any {
	var out []any
	for i := 0; i < n; i++ {
		out = append(out, steps...)
	}
	return out
}

func TestComputeExactDuration(t *testing.T) {
	k := testKernel(1)
	var finished sim.Time
	k.SpawnResumable("p", 1, 0, Script(
		Compute(30*sim.Millisecond),
		func(env *Env) { finished = env.Now() },
	))
	k.Engine().RunUntilIdle()
	if finished != sim.Time(30*sim.Millisecond) {
		t.Errorf("compute finished at %v, want 30ms", finished)
	}
}

func TestComputeSurvivesPreemption(t *testing.T) {
	// Two CPU-bound processes on one CPU: each needs 250 ms of CPU, so
	// with perfect interleaving both finish within [500ms, 500ms+q].
	k := testKernel(1)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		k.SpawnResumable("p", 1, 0, Script(
			Compute(250*sim.Millisecond),
			func(env *Env) { done = append(done, env.Now()) },
		))
	}
	k.Engine().RunUntilIdle()
	if len(done) != 2 {
		t.Fatalf("finished %d of 2", len(done))
	}
	last := done[1]
	if done[0] > last {
		last = done[0]
	}
	if last != sim.Time(500*sim.Millisecond) {
		t.Errorf("total completion at %v, want exactly 500ms (no CPU lost)", last)
	}
	// The first finisher must have been preempted at least twice.
	p := k.Processes()[0]
	if p.Stats.Preemptions == 0 {
		t.Error("no preemptions recorded on a shared CPU")
	}
}

func TestQuantumExpiryRoundRobins(t *testing.T) {
	k := testKernel(1)
	var first *Process
	k.SpawnResumable("a", 1, 0, Script(Compute(sim.Second)))
	k.SpawnResumable("b", 1, 0, Script(Compute(sim.Second)))
	k.Engine().Run(sim.Time(150 * sim.Millisecond))
	// After one quantum (100 ms) the second process must have run.
	first = k.Processes()[1]
	if first.Stats.Dispatches == 0 {
		t.Error("second process never dispatched after quantum expiry")
	}
	k.Engine().RunUntilIdle()
}

func TestSleepWake(t *testing.T) {
	k := testKernel(2)
	q := NewWaitQueue("q")
	var wokeAt sim.Time
	k.SpawnResumable("sleeper", 1, 0, Script(
		Sleep(q),
		func(env *Env) { wokeAt = env.Now() },
	))
	k.SpawnResumable("waker", 1, 0, Script(Compute(40*sim.Millisecond), wake(q, 1)))
	k.Engine().RunUntilIdle()
	if wokeAt != sim.Time(40*sim.Millisecond) {
		t.Errorf("woke at %v, want 40ms", wokeAt)
	}
	sleeper := k.Processes()[0]
	if sleeper.Stats.BlockTime == 0 {
		t.Error("sleeper accumulated no block time")
	}
	if sleeper.Stats.CPUTime > 5*sim.Millisecond {
		t.Errorf("sleeper burned %v CPU while blocked", sleeper.Stats.CPUTime)
	}
}

func TestWakeFIFOOrder(t *testing.T) {
	k := testKernel(4)
	q := NewWaitQueue("q")
	var order []PID
	for i := 0; i < 3; i++ {
		d := sim.Duration(i+1) * sim.Millisecond
		k.SpawnResumable("s", 1, 0, Script(
			Compute(d), // stagger arrival on the queue
			Sleep(q),
			func(env *Env) { order = append(order, env.Proc().ID()) },
		))
	}
	k.SpawnResumable("waker", 1, 0, Script(append([]any{Compute(10 * sim.Millisecond)},
		repeat(3, wake(q, 1), Compute(sim.Millisecond))...)...))
	k.Engine().RunUntilIdle()
	if len(order) != 3 {
		t.Fatalf("woke %d of 3", len(order))
	}
	for i := 1; i < 3; i++ {
		if order[i] < order[i-1] {
			t.Errorf("wake order not FIFO: %v", order)
		}
	}
}

func TestWakeMoreThanSleeping(t *testing.T) {
	k := testKernel(2)
	q := NewWaitQueue("q")
	woke := false
	k.SpawnResumable("s", 1, 0, Script(Sleep(q), func(*Env) { woke = true }))
	k.SpawnResumable("w", 1, 0, Script(
		Compute(sim.Millisecond),
		wake(q, 100), // only one sleeper exists
	))
	k.Engine().RunUntilIdle()
	if !woke {
		t.Error("sleeper not woken")
	}
}

func TestSleepFor(t *testing.T) {
	k := testKernel(1)
	var resumed sim.Time
	k.SpawnResumable("p", 1, 0, Script(
		Compute(10*sim.Millisecond),
		SleepFor(50*sim.Millisecond),
		func(env *Env) { resumed = env.Now() },
		Compute(5*sim.Millisecond),
	))
	k.Engine().RunUntilIdle()
	if resumed != sim.Time(60*sim.Millisecond) {
		t.Errorf("resumed at %v, want 60ms", resumed)
	}
}

func TestSleepForFreesCPU(t *testing.T) {
	k := testKernel(1)
	var otherDone sim.Time
	k.SpawnResumable("sleeper", 1, 0, Script(SleepFor(sim.Second)))
	k.SpawnResumable("worker", 2, 0, Script(
		Compute(50*sim.Millisecond),
		func(env *Env) { otherDone = env.Now() },
	))
	k.Engine().RunUntilIdle()
	if otherDone > sim.Time(51*sim.Millisecond) {
		t.Errorf("worker blocked by a sleeping process until %v", otherDone)
	}
}

func TestYield(t *testing.T) {
	k := testKernel(1)
	var order []string
	k.SpawnResumable("a", 1, 0, Script(
		Compute(sim.Millisecond),
		Yield(),
		func(*Env) { order = append(order, "a") },
	))
	k.SpawnResumable("b", 1, 0, Script(
		Compute(sim.Millisecond),
		func(*Env) { order = append(order, "b") },
	))
	k.Engine().RunUntilIdle()
	if len(order) != 2 || order[0] != "b" {
		t.Errorf("yield did not hand over the CPU: order %v", order)
	}
}

func TestExitAccounting(t *testing.T) {
	k := testKernel(2)
	p := k.SpawnResumable("p", 1, 0, Script(Compute(10*sim.Millisecond)))
	if k.Live() != 1 {
		t.Fatalf("Live = %d", k.Live())
	}
	k.Engine().RunUntilIdle()
	if p.State() != Exited {
		t.Errorf("state %v, want exited", p.State())
	}
	if k.Live() != 0 {
		t.Errorf("Live = %d after exit", k.Live())
	}
	if p.Stats.CPUTime != 10*sim.Millisecond {
		t.Errorf("CPUTime = %v, want 10ms", p.Stats.CPUTime)
	}
}

func TestExitHoldingLockPanics(t *testing.T) {
	k := testKernel(1)
	l := k.NewSpinLock("l")
	k.SpawnResumable("bad", 1, 0, Script(Acquire(l))) // exit without release
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "exited holding 1 lock(s)") {
			t.Errorf("exit holding a lock panicked with %q, want the kernel's exit panic", msg)
		}
	}()
	k.Engine().RunUntilIdle()
}

func TestReleaseNotHeldPanics(t *testing.T) {
	k := testKernel(1)
	l := k.NewSpinLock("l")
	k.SpawnResumable("bad", 1, 0, Script(release(l)))
	defer func() {
		if recover() == nil {
			t.Error("release of unheld lock did not panic")
		}
	}()
	k.Engine().RunUntilIdle()
}

func TestCPUAccountingBalances(t *testing.T) {
	// On a 2-CPU machine with 4 processes that compute, sleep and
	// compute again (so they move between CPUs), each CPU's busy time
	// must equal the CPU time its processes were credited in ProcStats
	// while on it, tallied from the hook at every leg's end.
	k := testKernel(2)
	tally := make([]sim.Duration, k.NumCPU())
	last := map[*Process]sim.Duration{}
	k.OnStateChange = func(p *Process, old, _ ProcState) {
		if old == Running {
			tally[p.LastCPU()] += p.Stats.CPUTime - last[p]
			last[p] = p.Stats.CPUTime
		}
	}
	for i := 0; i < 4; i++ {
		k.SpawnResumable("p", 1, 0, Script(
			Compute(sim.Duration(30+10*i)*sim.Millisecond),
			SleepFor(5*sim.Millisecond),
			Compute(sim.Duration(40-10*i)*sim.Millisecond)))
	}
	k.Engine().RunUntilIdle()
	k.Finalize()
	var busy sim.Duration
	for i := 0; i < k.NumCPU(); i++ {
		got := k.Machine().CPU(i).BusyTime
		if got != tally[i] || got == 0 {
			t.Errorf("CPU %d busy %v, its processes' ProcStats credit %v on it", i, got, tally[i])
		}
		busy += got
	}
	if busy != 4*70*sim.Millisecond {
		t.Errorf("busy %v, want 280ms", busy)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []sim.Duration {
		eng := sim.NewEngine(99)
		mac := machine.New(machine.Multimax16())
		k := New(eng, mac, NewTimeshare(), DefaultConfig())
		l := k.NewSpinLock("shared")
		for i := 0; i < 20; i++ {
			k.SpawnResumable("p", AppID(1+i%3), 64<<10, Script(repeat(10,
				func(env *Env) Request { return Compute(env.Rand().Duration(sim.Millisecond, 5*sim.Millisecond)) },
				Acquire(l),
				Compute(100*sim.Microsecond),
				release(l),
			)...))
		}
		eng.RunUntilIdle()
		var out []sim.Duration
		for _, p := range k.Processes() {
			out = append(out, p.Stats.CPUTime, p.Stats.SpinTime, p.Stats.ReadyTime)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at stat %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCountByApp(t *testing.T) {
	k := testKernel(8)
	q := NewWaitQueue("q")
	k.SpawnResumable("bg", AppNone, 0, Script(Compute(sim.Second)))
	for i := 0; i < 3; i++ {
		k.SpawnResumable("a1", 1, 0, Script(Compute(sim.Second)))
	}
	k.SpawnResumable("a2-blocked", 2, 0, Script(Sleep(q)))
	k.Engine().Run(sim.Time(10 * sim.Millisecond))
	buf := []int{7}
	buf = k.CountByApp(buf)
	if len(buf) != 4 || buf[0] != 7 {
		t.Fatalf("CountByApp appended to [7] gave %v, want [7] and one count per AppID 0..2", buf)
	}
	perApp := buf[1:]
	if perApp[AppNone] != 1 {
		t.Errorf("uncontrolled = %d, want 1", perApp[AppNone])
	}
	if perApp[1] != 3 {
		t.Errorf("app 1 = %d, want 3", perApp[1])
	}
	if perApp[2] != 0 {
		t.Errorf("app 2 = %d, want 0 (blocked doesn't count)", perApp[2])
	}
	// A buffer with room is filled in place: stale counts are cleared.
	perApp[1] = 99
	if again := k.CountByApp(buf[:1]); &again[1] != &perApp[0] || again[2] != 3 {
		t.Errorf("CountByApp into a buffer with room gave %v, want it in place with app 1 = 3", again)
	}
	// The sleeper never exits; bound the run instead of waiting for idle.
	k.Engine().Run(sim.Time(2 * sim.Second))
}

func TestSpawnDuringRun(t *testing.T) {
	k := testKernel(2)
	var childDone bool
	k.Engine().Schedule(sim.Time(50*sim.Millisecond), func() {
		k.SpawnResumable("late", 1, 0, Script(
			Compute(10*sim.Millisecond),
			func(*Env) { childDone = true },
		))
	})
	k.Engine().RunUntilIdle()
	if !childDone {
		t.Error("process spawned from an event never ran")
	}
}

func TestLookup(t *testing.T) {
	k := testKernel(1)
	p := k.SpawnResumable("p", 1, 0, Script())
	if k.Lookup(p.ID()) != p {
		t.Error("Lookup failed")
	}
	// PIDs are 1..n in spawn order: 0 and n+1 name no process.
	for _, id := range []PID{0, p.ID() + 1, -1, 9999} {
		if k.Lookup(id) != nil {
			t.Errorf("Lookup(%d) of an unknown PID returned a process", id)
		}
	}
	k.Engine().RunUntilIdle()
}

func TestStateChangeHook(t *testing.T) {
	k := testKernel(1)
	var transitions []ProcState
	k.OnStateChange = func(p *Process, old, next ProcState) {
		transitions = append(transitions, next)
	}
	k.SpawnResumable("p", 1, 0, Script(Compute(sim.Millisecond)))
	k.Engine().RunUntilIdle()
	want := []ProcState{Runnable, Running, Exited}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestProcStateString(t *testing.T) {
	cases := map[ProcState]string{
		Embryo: "embryo", Runnable: "runnable", Running: "running",
		Blocked: "blocked", Exited: "exited", ProcState(42): "ProcState(42)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

// TestValueReadsDerivedSeriesNow: every kernel series is derived from
// the kernel's own records when read, so Value, right after a run and
// again after more running past a snapshot, reads the records as they
// stand then, never a value left from an earlier read.
func TestValueReadsDerivedSeriesNow(t *testing.T) {
	k := testKernel(2)
	for i := 0; i < 3; i++ {
		k.SpawnResumable("w", 1, 0, Script(Compute(sim.Second)))
	}
	for _, until := range []sim.Duration{250 * sim.Millisecond, 2 * sim.Second} {
		k.eng.Run(sim.Time(until))
		var dispatches int64
		for _, p := range k.Processes() {
			dispatches += p.Stats.Dispatches
		}
		if v, ok := k.Metrics().Value(MetricDispatches); !ok || v != dispatches {
			t.Errorf("at %v: Value(%s) = %d, %v; the processes' records hold %d", until, MetricDispatches, v, ok, dispatches)
		}
		if v, ok := k.Metrics().Value(MetricMigrations); !ok || v != k.met.migrations {
			t.Errorf("at %v: Value(%s) = %d, %v; the kernel counted %d", until, MetricMigrations, v, ok, k.met.migrations)
		}
		k.MetricsSnapshot()
	}
}
