package kernel

import (
	"testing"

	"procctl/internal/sim"
)

func TestTimesharePrefersFreshProcesses(t *testing.T) {
	// The paper's Figure 4 note: a newly started process outranks one
	// with accumulated CPU usage.
	ts := NewTimeshare()
	k := testKernelPolicy(1, ts, Config{Quantum: 50 * sim.Millisecond, QuantumJitter: -1})
	var firstRunOfLate sim.Time
	k.SpawnResumable("old", 1, 0, Script(Compute(2*sim.Second)))
	k.SpawnResumable("old2", 1, 0, Script(Compute(2*sim.Second)))
	k.Engine().Schedule(sim.Time(900*sim.Millisecond), func() {
		k.SpawnResumable("late", 2, 0, Script(
			func(env *Env) { firstRunOfLate = env.Now() },
			Compute(10*sim.Millisecond),
		))
	})
	k.Engine().Run(sim.Time(1200 * sim.Millisecond))
	k.Engine().Run(sim.Time(5 * sim.Second))
	// The late arrival has zero usage, so it should run at the next
	// quantum boundary, ahead of the queued old process.
	if firstRunOfLate == 0 || firstRunOfLate > sim.Time(1000*sim.Millisecond) {
		t.Errorf("fresh process first ran at %v, want within ~one quantum of arrival", firstRunOfLate)
	}
}

func TestTimeshareUsageDecays(t *testing.T) {
	ts := NewTimeshare()
	k := testKernelPolicy(2, ts, Config{Quantum: 100 * sim.Millisecond, QuantumJitter: -1})
	p := k.SpawnResumable("p", 1, 0, Script(
		Compute(300*sim.Millisecond),
		SleepFor(3*sim.Second), // idle: usage should decay
		Compute(sim.Millisecond),
	))
	k.Engine().Run(sim.Time(320 * sim.Millisecond))
	usageBusy := p.Usage()
	k.Engine().Run(sim.Time(3 * sim.Second))
	usageIdle := p.Usage()
	k.Engine().RunUntilIdle()
	if usageBusy < float64(250*sim.Millisecond) {
		t.Errorf("usage after 300ms of CPU = %v, too low", usageBusy)
	}
	if usageIdle > usageBusy/3 {
		t.Errorf("usage did not decay while idle: %v -> %v", usageBusy, usageIdle)
	}
}

func TestCoschedGangsRunTogether(t *testing.T) {
	// Two 4-process gangs on 4 CPUs: at any sampled instant, the
	// running processes should all belong to one application. The
	// gangs rotate every quantum (50 ms).
	k := testKernelPolicy(4, NewCosched(), Config{Quantum: 50 * sim.Millisecond, QuantumJitter: -1})
	for app := AppID(1); app <= 2; app++ {
		for i := 0; i < 4; i++ {
			k.SpawnResumable("w", app, 0, Script(Compute(400*sim.Millisecond)))
		}
	}
	mixed, pure, both := 0, 0, 0
	for step := 0; step < 16; step++ {
		k.Engine().Run(sim.Time(sim.Duration(step+1) * 25 * sim.Millisecond))
		apps := map[AppID]int{}
		n := 0
		for i := 0; i < 4; i++ {
			if p := k.RunningOn(i); p != nil {
				apps[p.App()]++
				n++
			}
		}
		if n == 0 {
			continue
		}
		switch len(apps) {
		case 1:
			pure++
		default:
			mixed++
		}
		if len(apps) == 2 {
			both++
		}
	}
	k.Engine().RunUntilIdle()
	if pure < mixed {
		t.Errorf("coscheduling rarely ran gangs together: pure=%d mixed=%d", pure, mixed)
	}
}

func TestCoschedBothGangsProgress(t *testing.T) {
	k := testKernelPolicy(2, NewCosched(), Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	done := map[AppID]sim.Time{}
	for app := AppID(1); app <= 2; app++ {
		app := app
		for i := 0; i < 2; i++ {
			k.SpawnResumable("w", app, 0, Script(
				Compute(100*sim.Millisecond),
				func(env *Env) { done[app] = env.Now() },
			))
		}
	}
	k.Engine().Run(sim.Time(2 * sim.Second))
	if len(done) != 2 {
		t.Fatalf("only %d gangs finished", len(done))
	}
	// With fair rotation both finish around 400 ms; neither should be
	// starved past ~3x that.
	for app, at := range done {
		if at > sim.Time(1200*sim.Millisecond) {
			t.Errorf("gang %d starved until %v", app, at)
		}
	}
}

func TestSpinFlagHolderNotPreempted(t *testing.T) {
	// A lock holder's quantum expires mid-critical-section; spinflag
	// extends it so the holder finishes without a requeue delay.
	sf := NewSpinFlag()
	k := testKernelPolicy(1, sf, Config{Quantum: 50 * sim.Millisecond, QuantumJitter: -1})
	l := NewSpinLock("l")
	var releaseAt sim.Time
	holder := k.SpawnResumable("holder", 1, 0, Script(
		Acquire(l),
		Compute(70*sim.Millisecond), // quantum is 50 ms
		release(l),
		func(env *Env) { releaseAt = env.Now() },
	))
	k.SpawnResumable("other", 2, 0, Script(Compute(200*sim.Millisecond)))
	k.Engine().RunUntilIdle()
	if releaseAt != sim.Time(70*sim.Millisecond) {
		t.Errorf("critical section ended at %v, want 70ms (no preemption inside CS)", releaseAt)
	}
	if holder.Stats.Preemptions != 0 {
		t.Errorf("holder preempted %d times inside its critical section", holder.Stats.Preemptions)
	}
}

func TestSpinFlagExtensionCapped(t *testing.T) {
	// A holder whose critical section outlasts every extension is
	// preempted after its quantum plus 50 extensions of 2 ms.
	const capped = sim.Time(10*sim.Millisecond + 50*2*sim.Millisecond)
	k := testKernelPolicy(1, NewSpinFlag(), Config{Quantum: 10 * sim.Millisecond, QuantumJitter: -1})
	l := NewSpinLock("l")
	greedy := k.SpawnResumable("greedy", 1, 0, Script(
		Acquire(l),
		Compute(500*sim.Millisecond), // would hold forever if uncapped
		release(l),
	))
	victim := k.SpawnResumable("victim", 2, 0, Script(Compute(20*sim.Millisecond)))
	var victimFirstRun sim.Time
	k.OnDispatch = func(p *Process, cpu int, wait, _, _ sim.Duration) {
		if p == victim && victimFirstRun == 0 {
			victimFirstRun = k.Now()
		}
	}
	k.Engine().Run(capped + sim.Time(5*sim.Millisecond))
	if victimFirstRun != capped {
		t.Errorf("victim first ran at %v, want %v (quantum + 50 × 2 ms of extensions)", victimFirstRun, capped)
	}
	if greedy.Stats.Preemptions != 1 {
		t.Errorf("greedy holder preempted %d times by %v, want once, at the cap", greedy.Stats.Preemptions, k.Now())
	}
	k.Engine().RunUntilIdle()
}

func TestSpinFlagSkipsDoomedSpinners(t *testing.T) {
	// With the holder preempted (off CPU), the policy should prefer
	// dispatching a process that is not waiting on that lock. The
	// holder's critical section (300 ms) outlasts a quantum plus every
	// extension (20 ms + 50 × 2 ms), so it is preempted holding the lock
	// twice: at 120 ms, before the spinner has tried the lock, and at
	// 280 ms, with the spinner queued ahead of the independent process.
	k := testKernelPolicy(1, NewSpinFlag(), Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	l := NewSpinLock("l")
	holder := k.SpawnResumable("holder", 1, 0, Script(Acquire(l), Compute(300*sim.Millisecond), release(l)))
	spinner := k.SpawnResumable("spinner", 1, 0, Script(Acquire(l), release(l)))
	indep := k.SpawnResumable("independent", 2, 0, Script(Compute(30*sim.Millisecond)))
	doomed := 0
	k.OnDispatch = func(p *Process, cpu int, wait, _, _ sim.Duration) {
		if p.waitingLock == l && l.holder == holder && holder.state != Running {
			doomed++
		}
	}
	k.Engine().RunUntilIdle()
	if holder.Stats.Preemptions < 2 {
		t.Fatalf("holder preempted %d times, want at least 2: the scenario never queued a doomed spinner", holder.Stats.Preemptions)
	}
	// A naive FIFO hands the spinner another whole quantum at 280 ms;
	// here it spins only for the quantum it ran before it was known to
	// wait on the lock, and the independent process runs in its place.
	if doomed != 0 {
		t.Errorf("dispatched the spinner %d times while the holder was off CPU", doomed)
	}
	if spinner.Stats.SpinTime > 20*sim.Millisecond {
		t.Errorf("doomed spinner still burned %v, want at most one quantum", spinner.Stats.SpinTime)
	}
	if indep.Stats.ReadyTime > 260*sim.Millisecond {
		t.Errorf("independent process waited %v, want at most 260 ms", indep.Stats.ReadyTime)
	}
}

func TestAffinityReschedulesOnSameCPU(t *testing.T) {
	af := NewAffinity()
	k := testKernelPolicy(2, af, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	// Four processes on two CPUs: after warmup, each process should be
	// redispatched on its previous CPU most of the time.
	procs := make([]*Process, 4)
	for i := range procs {
		procs[i] = k.SpawnResumable("p", 1, 0, Script(Compute(500*sim.Millisecond)))
	}
	type move struct{ same, total int }
	var m move
	last := map[PID]int{}
	k.OnStateChange = func(p *Process, old, next ProcState) {
		if next == Running {
			if prev, ok := last[p.ID()]; ok {
				m.total++
				if prev == p.LastCPU() {
					m.same++
				}
			}
			last[p.ID()] = p.LastCPU()
		}
	}
	k.Engine().RunUntilIdle()
	if m.total == 0 {
		t.Fatal("no redispatches observed")
	}
	if frac := float64(m.same) / float64(m.total); frac < 0.9 {
		t.Errorf("only %.0f%% of redispatches kept affinity", 100*frac)
	}
}

func TestAffinityStealsFromLongQueue(t *testing.T) {
	af := NewAffinity()
	k := testKernelPolicy(2, af, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	// Pin three processes' affinity to CPU 0 by letting them run there
	// first, then watch CPU 1 steal rather than idle.
	for i := 0; i < 3; i++ {
		k.SpawnResumable("p", 1, 0, Script(Compute(300*sim.Millisecond)))
	}
	end := k.Engine().RunUntilIdle()
	k.Finalize()
	var idle sim.Duration
	for i := 0; i < 2; i++ {
		_, cpuIdle := k.busyIdle(k.cpus[i])
		idle += cpuIdle
	}
	// 900 ms of work on 2 CPUs should take ~450 ms, not 900.
	if end > sim.Time(600*sim.Millisecond) {
		t.Errorf("work finished at %v; stealing failed (idle %v)", end, idle)
	}
}

func TestPartitionGrowsWhenAppExits(t *testing.T) {
	pt := NewPartition()
	k := testKernelPolicy(4, pt, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	for i := 0; i < 4; i++ {
		k.SpawnResumable("a", 1, 0, Script(Compute(2*sim.Second)))
	}
	var bDone sim.Time
	for i := 0; i < 4; i++ {
		k.SpawnResumable("b", 2, 0, Script(
			Compute(300*sim.Millisecond),
			func(env *Env) { bDone = max(bDone, env.Now()) },
		))
	}
	// The first periodic repartition (250 ms) sees both groups whole.
	k.Engine().Run(sim.Time(260 * sim.Millisecond))
	if pt.CPUsOf(1) != 2 || pt.CPUsOf(2) != 2 {
		t.Errorf("split after the first repartition %d/%d, want 2/2", pt.CPUsOf(1), pt.CPUsOf(2))
	}
	// App 2 exits between the repartitions at 500 and 750 ms.
	k.Engine().Run(sim.Time(760 * sim.Millisecond))
	if bDone <= sim.Time(500*sim.Millisecond) || bDone > sim.Time(750*sim.Millisecond) {
		t.Fatalf("app 2 finished at %v, want within (500 ms, 750 ms]", bDone)
	}
	if pt.CPUsOf(1) != 4 {
		t.Errorf("app 1 owns %d CPUs after app 2 exited, want 4", pt.CPUsOf(1))
	}
	k.Engine().RunUntilIdle()
}

// TestPartitionSplitsFromFirstDispatch: two 4-process apps spawned at
// one instant on 4 CPUs split 2/2 from the start, not 3/1 until the
// first periodic repartition. The first repartition must see each
// group whole, not its first process alone.
func TestPartitionSplitsFromFirstDispatch(t *testing.T) {
	pt := NewPartition()
	k := testKernelPolicy(4, pt, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	for _, app := range []AppID{1, 2} {
		for i := 0; i < 4; i++ {
			k.SpawnResumable("p", app, 0, Script(Compute(sim.Second)))
		}
	}
	// Sample who runs where at the spawn instant, once the spawning is
	// done, and every 5 ms up to the first periodic repartition.
	check := func() bool {
		running := map[AppID]int{}
		for cpu := 0; cpu < k.NumCPU(); cpu++ {
			if p := k.RunningOn(cpu); p != nil {
				running[p.App()]++
			}
		}
		if pt.CPUsOf(1) != 2 || pt.CPUsOf(2) != 2 || running[1] != 2 || running[2] != 2 {
			t.Errorf("at %v: groups own %d/%d CPUs and run on %d/%d, want 2/2 and 2/2",
				k.Now(), pt.CPUsOf(1), pt.CPUsOf(2), running[1], running[2])
			return false
		}
		return k.Now() < sim.Time(repartitionInterval)
	}
	k.Engine().Schedule(0, func() { check() })
	k.Engine().Every(5*sim.Millisecond, check)
	k.Engine().Run(sim.Time(repartitionInterval))
}

// TestPartitionPeriodOutlivesAnEmptyMachine: the periodic repartition
// still runs after a tick that found no live process. App 1 exits
// before the 250 ms tick; apps 2 and 3 arrive after the gap and split
// 2/2; app 3 exits soon after, and the next period hands its processors
// to app 2 rather than leaving them with a group that has none.
func TestPartitionPeriodOutlivesAnEmptyMachine(t *testing.T) {
	pt := NewPartition()
	k := testKernelPolicy(4, pt, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	k.SpawnResumable("a", 1, 0, Script(Compute(100*sim.Millisecond)))
	arrive := sim.Time(300 * sim.Millisecond)
	k.Engine().Schedule(arrive, func() {
		for i := 0; i < 4; i++ {
			k.SpawnResumable("b", 2, 0, Script(Compute(2*sim.Second)))
		}
	})
	var cDone sim.Time
	k.Engine().Schedule(arrive.Add(20*sim.Millisecond), func() {
		for i := 0; i < 4; i++ {
			k.SpawnResumable("c", 3, 0, Script(
				Compute(50*sim.Millisecond),
				func(env *Env) { cDone = max(cDone, env.Now()) },
			))
		}
	})
	k.Engine().Run(arrive.Add(30 * sim.Millisecond))
	if k.Live() != 8 || pt.CPUsOf(2) != 2 || pt.CPUsOf(3) != 2 {
		t.Fatalf("after both arrivals: %d live, split %d/%d, want 8 live and 2/2",
			k.Live(), pt.CPUsOf(2), pt.CPUsOf(3))
	}
	next := arrive.Add(repartitionInterval)
	k.Engine().Run(next.Add(-sim.Millisecond))
	if cDone == 0 || cDone >= next {
		t.Fatalf("app 3 finished at %v, want before the period at %v", cDone, next)
	}
	k.Engine().Run(next.Add(sim.Millisecond))
	if pt.CPUsOf(2) != 4 || pt.CPUsOf(3) != 0 {
		t.Errorf("after the period at %v: split %d/%d, want 4/0", next, pt.CPUsOf(2), pt.CPUsOf(3))
	}
	// The period stops again once the machine is empty, so the engine
	// still runs dry.
	if end := k.Engine().RunUntilIdle(); k.Live() != 0 || end > sim.Time(3*sim.Second) {
		t.Errorf("ran dry at %v with %d live, want ≈2.3 s and 0", end, k.Live())
	}
}

func TestPartitionBackfillUsesIdleCPUs(t *testing.T) {
	k := testKernelPolicy(4, NewPartition(), Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	// One app with 8 processes: it should use all 4 CPUs even though
	// other groups exist transiently.
	for i := 0; i < 8; i++ {
		k.SpawnResumable("a", 1, 0, Script(Compute(100*sim.Millisecond)))
	}
	end := k.Engine().RunUntilIdle()
	// 800 ms of work on 4 CPUs ≈ 200 ms.
	if end > sim.Time(280*sim.Millisecond) {
		t.Errorf("finished at %v, want ≈200ms", end)
	}
}

func TestEqualShares(t *testing.T) {
	cases := []struct {
		ncpu   int
		demand []int
		want   []int
	}{
		{8, []int{2, 16, 16}, []int{2, 3, 3}},
		{16, []int{16, 16}, []int{8, 8}},
		{4, []int{1, 1}, []int{1, 1}}, // saturated: leave 2 idle
		{2, []int{10, 10, 10}, []int{1, 1, 0}},
		{16, []int{3, 3, 3}, []int{3, 3, 3}},
	}
	for i, c := range cases {
		active := make([]AppID, len(c.demand))
		dem := map[AppID]int{}
		for j, d := range c.demand {
			active[j] = AppID(j + 1)
			dem[AppID(j+1)] = d
		}
		got := equalShares(c.ncpu, active, dem)
		for j := range c.want {
			if got[j] != c.want[j] {
				t.Errorf("case %d: equalShares = %v, want %v", i, got, c.want)
				break
			}
		}
	}
}
