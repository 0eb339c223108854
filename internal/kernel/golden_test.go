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
// requests onto the body goroutine must not move a single line.
const requestPathGoldenSHA256 = "cb67bcdcfcbd5a695e7d507ec01f531f27d664d644395826036da562bcaba359"

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
	k.OnExit = func(p *Process) { fmt.Fprintf(&buf, "%d exit %d killed=%v\n", k.Now(), p.ID(), p.Killed()) }
	k.OnStateChange = func(p *Process, old, next ProcState) {
		fmt.Fprintf(&buf, "%d state %d %v>%v\n", k.Now(), p.ID(), old, next)
	}
	k.OnDispatch = func(p *Process, cpu int, wait sim.Duration) {
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

	hot, cold := NewSpinLock("hot"), NewSpinLock("cold")
	q := NewWaitQueue("suspend")

	// Six workers on three CPUs hammer one lock with critical sections
	// longer than the quantum now and then, so holders are preempted
	// inside them; worker 0 resumes a suspended peer halfway through.
	var workers []*Process
	for i := 0; i < 6; i++ {
		i := i
		workers = append(workers, k.Spawn(fmt.Sprintf("w%d", i), 1, 48<<10, func(env *Env) {
			for round := 0; round < 12; round++ {
				env.Compute(sim.Duration(300+70*i) * sim.Microsecond)
				env.Acquire(hot)
				cs := 400 * sim.Microsecond
				if (round+i)%4 == 0 {
					cs = 9 * sim.Millisecond // outlives the quantum
				}
				env.Compute(cs)
				if round%5 == 2 {
					env.Acquire(cold) // nested, uncontended
					env.Compute(50 * sim.Microsecond)
					env.Release(cold)
				}
				env.Release(hot)
				switch {
				case i == 5 && round == 3:
					env.Sleep(q) // suspended until worker 0 resumes it
				case i == 0 && round == 8:
					env.Wake(q, 4) // more than are asleep
				case i == 2 && round == 6:
					env.Yield()
				case i == 3 && round%6 == 1:
					env.SleepFor(3 * sim.Millisecond)
				}
			}
		}))
	}
	// A second application whose holder is crashed mid-critical-section
	// while its peer spins on the lock, and a first-application worker
	// stalled while runnable; whoever runs on CPU 0 at 44 ms is stalled
	// while running.
	crashLock := NewSpinLock("crash")
	victim := k.Spawn("victim", 2, 16<<10, func(env *Env) {
		env.Acquire(crashLock)
		env.Compute(sim.Second)
		env.Release(crashLock)
	})
	k.Spawn("peer", 2, 16<<10, func(env *Env) {
		env.Compute(2 * sim.Millisecond)
		env.Acquire(crashLock)
		env.Compute(sim.Millisecond)
		env.Release(crashLock)
	})
	eng.Schedule(sim.Time(31*sim.Millisecond), func() { k.Kill(victim) })
	eng.Schedule(sim.Time(17*sim.Millisecond), func() { k.Stall(workers[4], 30*sim.Millisecond) })
	eng.Schedule(sim.Time(44*sim.Millisecond), func() { k.Stall(k.RunningOn(0), 4*sim.Millisecond) })

	eng.RunUntilIdle()
	k.Finalize()
	k.Shutdown()

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
