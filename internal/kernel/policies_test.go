package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"procctl/internal/sim"
)

func TestFifoQueueBasics(t *testing.T) {
	q := &fifoQueue{}
	if q.pop() != nil || q.peek() != nil || q.len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	a, b, c := &Process{id: 1}, &Process{id: 2}, &Process{id: 3}
	q.push(a)
	q.push(b)
	q.push(c)
	if q.peek() != a || q.len() != 3 {
		t.Fatal("peek/len wrong")
	}
	if !q.remove(b) || q.remove(b) {
		t.Fatal("remove wrong")
	}
	if got := q.pop(); got != a {
		t.Fatalf("pop = %v", got)
	}
	if got := q.popWhere(func(p *Process) bool { return p.id == 3 }); got != c {
		t.Fatalf("popWhere = %v", got)
	}
	if q.len() != 0 {
		t.Fatalf("len = %d", q.len())
	}
}

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
	// running processes should all belong to one application.
	cs := NewCosched()
	cs.Slice = 50 * sim.Millisecond
	k := testKernelPolicy(4, cs, Config{Quantum: 100 * sim.Millisecond, QuantumJitter: -1})
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
	cs := NewCosched()
	cs.Slice = 20 * sim.Millisecond
	k := testKernelPolicy(2, cs, Config{Quantum: 100 * sim.Millisecond, QuantumJitter: -1})
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
	sf := NewSpinFlag()
	sf.Extension = sim.Millisecond
	sf.MaxExtensions = 3
	k := testKernelPolicy(1, sf, Config{Quantum: 10 * sim.Millisecond, QuantumJitter: -1})
	l := NewSpinLock("l")
	greedy := k.SpawnResumable("greedy", 1, 0, Script(
		Acquire(l),
		Compute(500*sim.Millisecond), // would hold forever if uncapped
		release(l),
	))
	k.SpawnResumable("victim", 2, 0, Script(Compute(20*sim.Millisecond)))
	k.Engine().Run(sim.Time(100 * sim.Millisecond))
	victim := k.Processes()[1]
	if victim.Stats.CPUTime == 0 {
		t.Error("victim starved: extension cap not enforced")
	}
	if greedy.Stats.Preemptions == 0 {
		t.Error("greedy holder never preempted despite the cap")
	}
	k.Engine().RunUntilIdle()
}

func TestSpinFlagSkipsDoomedSpinners(t *testing.T) {
	// With the holder preempted (off CPU), the policy should prefer
	// dispatching a process that is not waiting on that lock.
	sf := NewSpinFlag()
	sf.MaxExtensions = 0 // disable extensions; we want the holder preempted
	k := testKernelPolicy(1, sf, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	l := NewSpinLock("l")
	k.SpawnResumable("holder", 1, 0, Script(Acquire(l), Compute(50*sim.Millisecond), release(l)))
	k.SpawnResumable("spinner", 1, 0, Script(Acquire(l), release(l)))
	indep := k.SpawnResumable("independent", 2, 0, Script(Compute(30*sim.Millisecond)))
	k.Engine().RunUntilIdle()
	spinner := k.Processes()[1]
	// The independent process should finish with minimal delay beyond
	// fair sharing, and the spinner should have burned little CPU
	// relative to a naive FIFO (which would hand it whole quanta).
	if indep.Stats.ReadyTime > 120*sim.Millisecond {
		t.Errorf("independent process waited %v", indep.Stats.ReadyTime)
	}
	if spinner.Stats.SpinTime > 60*sim.Millisecond {
		t.Errorf("doomed spinner still burned %v", spinner.Stats.SpinTime)
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
		idle += k.CPUIdleTime(i)
	}
	// 900 ms of work on 2 CPUs should take ~450 ms, not 900.
	if end > sim.Time(600*sim.Millisecond) {
		t.Errorf("work finished at %v; stealing failed (idle %v)", end, idle)
	}
}

func TestPartitionIsolation(t *testing.T) {
	pt := NewPartition()
	pt.Backfill = false
	pt.Interval = 10 * sim.Millisecond
	k := testKernelPolicy(4, pt, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	for app := AppID(1); app <= 2; app++ {
		for i := 0; i < 4; i++ {
			k.SpawnResumable("w", app, 0, Script(Compute(200*sim.Millisecond)))
		}
	}
	// After the partition settles, each app owns 2 CPUs and processes
	// only run on their group's CPUs.
	violations, assignedSeen := 0, 0
	for step := 1; step <= 20; step++ {
		k.Engine().Run(sim.Time(sim.Duration(step) * 15 * sim.Millisecond))
		for i := 0; i < 4; i++ {
			if p := k.RunningOn(i); p != nil && pt.Owner(i) != p.App() {
				violations++
			}
		}
		if pt.CPUsOf(1)+pt.CPUsOf(2) == 4 {
			assignedSeen++
		}
	}
	k.Engine().RunUntilIdle()
	if violations > 0 {
		t.Errorf("%d strict-isolation violations", violations)
	}
	if assignedSeen == 0 {
		t.Error("partition never assigned all four CPUs during the run")
	}
}

func TestPartitionGrowsWhenAppExits(t *testing.T) {
	pt := NewPartition()
	pt.Interval = 10 * sim.Millisecond
	k := testKernelPolicy(4, pt, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
	for i := 0; i < 4; i++ {
		k.SpawnResumable("a", 1, 0, Script(Compute(500*sim.Millisecond)))
	}
	for i := 0; i < 4; i++ {
		k.SpawnResumable("b", 2, 0, Script(Compute(50*sim.Millisecond)))
	}
	k.Engine().Run(sim.Time(30 * sim.Millisecond))
	if pt.CPUsOf(1) != 2 || pt.CPUsOf(2) != 2 {
		t.Errorf("initial split %d/%d, want 2/2", pt.CPUsOf(1), pt.CPUsOf(2))
	}
	k.Engine().Run(sim.Time(300 * sim.Millisecond)) // app 2 exits ~100 ms
	if pt.CPUsOf(1) != 4 {
		t.Errorf("app 1 owns %d CPUs after app 2 exited, want 4", pt.CPUsOf(1))
	}
	k.Engine().RunUntilIdle()
}

func TestPartitionBackfillUsesIdleCPUs(t *testing.T) {
	pt := NewPartition()
	pt.Interval = 10 * sim.Millisecond
	k := testKernelPolicy(4, pt, Config{Quantum: 20 * sim.Millisecond, QuantumJitter: -1})
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

// Popping advances a head index and the storage rewinds when the queue
// drains, so a queue in steady state never re-grows its array; removal
// from the middle of the live window keeps arrival order.
func TestFifoQueueReusesStorage(t *testing.T) {
	q := &fifoQueue{}
	procs := make([]*Process, 6)
	for i := range procs {
		procs[i] = &Process{id: PID(i + 1)}
	}
	for round := 0; round < 3; round++ {
		for _, p := range procs[:4] {
			q.push(p)
		}
		if q.pop() != procs[0] || q.pop() != procs[1] {
			t.Fatal("pop order wrong")
		}
		q.push(procs[4])
		q.push(procs[5])
		if q.remove(procs[0]) {
			t.Error("remove of an already popped process succeeded")
		}
		if !q.remove(procs[4]) || q.len() != 3 || q.peek() != procs[2] {
			t.Fatalf("after removing from the middle: len %d, front %v", q.len(), q.peek())
		}
		if got := q.popWhere(func(p *Process) bool { return p.id > 3 }); got != procs[3] {
			t.Fatalf("popWhere = %v, want pid 4", got)
		}
		if q.pop() != procs[2] || q.pop() != procs[5] || q.pop() != nil {
			t.Fatal("drain order wrong")
		}
		if q.head != 0 || len(q.procs) != 0 {
			t.Fatalf("drained queue did not rewind: head %d, len %d", q.head, len(q.procs))
		}
	}
	if cap(q.procs) > 8 {
		t.Errorf("array grew to %d slots for at most 4 queued processes", cap(q.procs))
	}
}

// A run queue that never drains — an oversubscribed machine's — used to
// grow its array with every dispatch: the rewind only happened on drain,
// so push appended behind an ever longer dead prefix. A million pop/push
// cycles with the queue never empty must stay in an array of at most
// twice the longest the queue has been, in arrival order throughout.
func TestFifoQueueThatNeverDrainsStaysBounded(t *testing.T) {
	q := &fifoQueue{}
	procs := make([]*Process, 48)
	for i := range procs {
		procs[i] = &Process{id: PID(i + 1)}
	}
	rng := rand.New(rand.NewSource(1))
	var want []*Process // reference FIFO: plain slice, re-sliced
	next, peak := 0, 0
	push := func() {
		p := procs[next%len(procs)]
		next++
		q.push(p)
		want = append(want, p)
		peak = max(peak, q.len())
	}
	for q.len() < 32 {
		push()
	}
	for i := 0; i < 1_000_000; i++ {
		// The queue hovers between 1 and 48 and takes from the middle now
		// and then, as Timeshare.PickNext does.
		switch {
		case q.len() == 1 || (q.len() < len(procs) && rng.Intn(2) == 0):
			push()
		case rng.Intn(8) == 0:
			at := rng.Intn(q.len())
			if got := q.removeAt(at); got != want[at] {
				t.Fatalf("cycle %d: removeAt(%d) = pid %d, want pid %d", i, at, got.id, want[at].id)
			}
			want = slices.Delete(want, at, at+1)
		default:
			if got := q.pop(); got != want[0] {
				t.Fatalf("cycle %d: pop = pid %d, want pid %d", i, got.id, want[0].id)
			}
			want = want[1:]
		}
		if q.len() == 0 {
			t.Fatalf("cycle %d: the queue drained; the test is about one that does not", i)
		}
		if cap(q.procs) > 2*peak {
			t.Fatalf("cycle %d: array of %d slots for a queue that peaked at %d", i, cap(q.procs), peak)
		}
	}
	if !slices.Equal(q.items(), want) {
		t.Error("queue contents differ from the reference FIFO")
	}
	// Nothing dead is left for the collector to scan.
	for i, p := range q.procs[:q.head] {
		if p != nil {
			t.Fatalf("dead slot %d still points at pid %d", i, p.id)
		}
	}
	for i, p := range q.procs[len(q.procs):cap(q.procs)] {
		if p != nil {
			t.Fatalf("free slot %d still points at pid %d", len(q.procs)+i, p.id)
		}
	}
}
