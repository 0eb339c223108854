package kernel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"procctl/internal/machine"
	"procctl/internal/sim"
)

// requestPathGoldenSHA256 pins the byte-exact hook stream of a small
// scenario that walks every arm of the request path the Fig4 golden
// does not: a contended lock with FIFO hand-off, holders preempted
// inside their critical section (waiters spin through it and are
// preempted mid-spin themselves), suspend/resume on a wait queue, a
// timed sleep, a yield, a Stall of a runnable process and of a running
// lock holder, and a Kill of a lock holder with a running waiter. It was recorded on the tree where
// every request was an engine-side rendezvous; moving the zero-time
// requests into the body, and the bodies from coroutines to Script,
// must not move a single line. It moved once, when ProcStats lost its
// write-only SwitchTime, ReloadTime and LockSpins: the new text is the
// old one with those three pairs cut from each proc line.
const requestPathGoldenSHA256 = "b1dabd6455ab939df2936cbdbdcfe050fb04ac188d4b5fe963058af0b2a353b4"

// recordRequestPathScenario runs the scenario and returns one line per
// kernel hook invocation plus the closing counters.
func recordRequestPathScenario() []byte {
	eng := sim.NewEngine(7)
	mac := machine.New(machine.Config{
		NumCPU:        3,
		ContextSwitch: 200 * sim.Microsecond,
		CacheSize:     64 << 10,
		ReloadRate:    32,
	})
	k := New(eng, mac, NewTimeshare(), Config{Quantum: 5 * sim.Millisecond, QuantumJitter: 2 * sim.Millisecond})

	var buf bytes.Buffer
	k.OnSpawn = func(p *Process) { fmt.Fprintf(&buf, "%d spawn %d\n", k.Now(), p.ID()) }
	k.OnExit = func(p *Process) { fmt.Fprintf(&buf, "%d exit %d killed=%v\n", k.Now(), p.ID(), p.killed) }
	k.OnStateChange = func(p *Process, old, next ProcState) {
		fmt.Fprintf(&buf, "%d state %d %v>%v\n", k.Now(), p.ID(), old, next)
	}
	k.OnDispatch = func(p *Process, cpu int, wait, _, _ sim.Duration) {
		fmt.Fprintf(&buf, "%d dispatch %d cpu%d wait=%d\n", k.Now(), p.ID(), cpu, wait)
	}
	k.OnLockContend = func(p *Process, l *SpinLock, holder *Process, first bool) {
		fmt.Fprintf(&buf, "%d contend %d %s holder=%d(%v) first=%v\n", k.Now(), p.ID(), l.Name(), holder.ID(), holder.State(), first)
	}
	k.OnLockAcquire = func(p *Process, l *SpinLock, spun sim.Duration) {
		fmt.Fprintf(&buf, "%d acquire %d %s spun=%d\n", k.Now(), p.ID(), l.Name(), spun)
	}
	k.OnLockRelease = func(p *Process, l *SpinLock, held sim.Duration, forced bool) {
		fmt.Fprintf(&buf, "%d release %d %s held=%d forced=%v\n", k.Now(), p.ID(), l.Name(), held, forced)
	}

	hot, cold := k.NewSpinLock("hot"), k.NewSpinLock("cold")
	q := NewWaitQueue("suspend")

	// Six workers on three CPUs hammer one lock with critical sections
	// longer than the quantum now and then, so holders are preempted
	// inside them; worker 0 resumes a suspended peer halfway through.
	var workers []*Process
	for i := 0; i < 6; i++ {
		i := i
		var steps []any
		for round := 0; round < 12; round++ {
			cs := 400 * sim.Microsecond
			if (round+i)%4 == 0 {
				cs = 9 * sim.Millisecond // outlives the quantum
			}
			steps = append(steps, Compute(sim.Duration(300+70*i)*sim.Microsecond), Acquire(hot), Compute(cs))
			if round%5 == 2 {
				// nested, uncontended
				steps = append(steps, Acquire(cold), Compute(50*sim.Microsecond), release(cold))
			}
			steps = append(steps, release(hot))
			switch {
			case i == 5 && round == 3:
				steps = append(steps, Sleep(q)) // suspended until worker 0 resumes it
			case i == 0 && round == 8:
				steps = append(steps, wake(q, 4)) // more than are asleep
			case i == 2 && round == 6:
				steps = append(steps, Yield())
			case i == 3 && round%6 == 1:
				steps = append(steps, SleepFor(3*sim.Millisecond))
			}
		}
		workers = append(workers, k.SpawnResumable(fmt.Sprintf("w%d", i), 1, 48<<10, Script(steps...)))
	}
	// A second application whose holder is crashed mid-critical-section
	// while its peer spins on the lock, and a first-application worker
	// stalled while runnable; whoever runs on CPU 0 at 44 ms is stalled
	// while running.
	crashLock := k.NewSpinLock("crash")
	victim := k.SpawnResumable("victim", 2, 16<<10, Script(Acquire(crashLock), Compute(sim.Second), release(crashLock)))
	k.SpawnResumable("peer", 2, 16<<10, Script(
		Compute(2*sim.Millisecond),
		Acquire(crashLock),
		Compute(sim.Millisecond),
		release(crashLock),
	))
	eng.Schedule(sim.Time(31*sim.Millisecond), func() { k.Kill(victim) })
	eng.Schedule(sim.Time(17*sim.Millisecond), func() { k.Stall(workers[4], 30*sim.Millisecond) })
	eng.Schedule(sim.Time(44*sim.Millisecond), func() { k.Stall(k.RunningOn(0), 4*sim.Millisecond) })

	eng.RunUntilIdle()
	k.Finalize()

	fmt.Fprintf(&buf, "end %d fired=%d canceled=%d live=%d\n", k.Now(), eng.Fired(), eng.Canceled(), k.Live())
	for _, l := range []*SpinLock{hot, cold, crashLock} {
		fmt.Fprintf(&buf, "lock %s acquires=%d contended=%d forced=%d held=%d\n",
			l.Name(), l.Acquires, l.Contended, l.ForcedReleases, l.HeldTime)
	}
	fmt.Fprintf(&buf, "queue sleeps=%d wakes=%d\n", q.Sleeps, q.Wakes)
	for _, p := range k.Processes() {
		fmt.Fprintf(&buf, "proc %d %+v\n", p.ID(), p.Stats)
	}
	k.MetricsSnapshot().WriteText(&buf)
	return buf.Bytes()
}

func TestRequestPathGolden(t *testing.T) {
	out := recordRequestPathScenario()
	// The scenario must actually reach the arms it claims to pin.
	for _, want := range []string{"first=false", "forced=true", "(runnable)", "running>blocked", "spun=0\n"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("scenario trace has no %q line: it no longer covers that arm", want)
		}
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != requestPathGoldenSHA256 {
		t.Fatalf("request-path trace drifted from the golden:\n  got  %s\n  want %s\n(%d bytes, %d lines)",
			got, requestPathGoldenSHA256, len(out), bytes.Count(out, []byte("\n")))
	}
}

// spawnProbeGoldenSHA256 pins what the repo benchmark's kernel.spawn_us
// probe does to a kernel: 256 idle processes spawned through Spawn on
// the default machine, each dispatched once and exiting at its first
// resume. It was recorded while Spawn still ran its body as a
// coroutine; Spawn's resumable adapter must not move a line. Like
// requestPathGoldenSHA256 it moved only to cut ProcStats's three
// write-only pairs from each proc line.
const spawnProbeGoldenSHA256 = "7495a93173b6a5db8cd75fe5f0d768e43033d320d0aa9c498667d92e0477f762"

func TestSpawnProbeGolden(t *testing.T) {
	eng := sim.NewEngine(1)
	k := New(eng, machine.New(machine.Multimax16()), NewTimeshare(), DefaultConfig())
	var buf bytes.Buffer
	k.OnSpawn = func(p *Process) { fmt.Fprintf(&buf, "%d spawn %d\n", k.Now(), p.ID()) }
	k.OnExit = func(p *Process) { fmt.Fprintf(&buf, "%d exit %d\n", k.Now(), p.ID()) }
	k.OnStateChange = func(p *Process, old, next ProcState) {
		fmt.Fprintf(&buf, "%d state %d %v>%v\n", k.Now(), p.ID(), old, next)
	}
	k.OnDispatch = func(p *Process, cpu int, wait, _, _ sim.Duration) {
		fmt.Fprintf(&buf, "%d dispatch %d cpu%d wait=%d\n", k.Now(), p.ID(), cpu, wait)
	}
	for i := 0; i < 256; i++ {
		k.Spawn("probe", AppNone, 0, func(*Env) {})
	}
	eng.RunUntilIdle()
	k.Finalize()
	fmt.Fprintf(&buf, "end %d fired=%d canceled=%d live=%d\n", k.Now(), eng.Fired(), eng.Canceled(), k.Live())
	for _, p := range k.Processes() {
		fmt.Fprintf(&buf, "proc %d %v %+v\n", p.ID(), p.State(), p.Stats)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != spawnProbeGoldenSHA256 {
		t.Fatalf("spawn probe drifted from the golden:\n  got  %s\n  want %s\n(%d bytes, %d lines)",
			got, spawnProbeGoldenSHA256, buf.Len(), bytes.Count(buf.Bytes(), []byte("\n")))
	}
}
