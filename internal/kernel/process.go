// Package kernel simulates the operating-system layer of a multiprogrammed
// shared-memory multiprocessor: kernel processes, preemptive scheduling
// with time quanta, spinlocks whose waiters burn CPU, and sleep/wakeup
// queues (the paper's signal-based suspension).
//
// A process body (SpawnResumable) is a function from *Env to Request — a
// state machine — that the engine calls each time the process's last
// blocking request has been satisfied, and that returns the next one. It
// runs on the engine's goroutine and holds no goroutine and no stack
// between calls. Exactly one of {the engine, one body} executes at any
// moment, so bodies may freely share data structures and the simulation
// stays deterministic. The threads runtime's worker and the background
// load are written this way; Script builds a body from a list of steps.
//
// # The request path
//
// A body executes only while its process is Running, past its dispatch
// overhead, and the engine is inside Kernel.advance — the only place a
// body is called — until the body returns its next request. While it
// runs, the body therefore has exclusive access to the kernel.
//
// A request whose completion needs virtual time to pass — Compute,
// Sleep, SleepFor, Yield, Exit, Acquire of a held lock (spinning burns
// time) — is a Request, returned to the engine. (A Compute or SleepFor
// of no duration is the exception that proves the rule: advance answers
// it by calling the body again.) A request that completes at the current
// instant — taking a free lock (Env.TryAcquire, which a body tries before
// it returns Acquire), Release (including the hand-off to the first
// spinning waiter), Wake — is performed by the body itself, calling the
// same takeLock, releaseLock and WakeQueue the engine-side paths call. It
// schedules the same events, fires the same hooks and bumps the same
// counters in the same order, so event firing order does not depend on
// who performed the request. What follows from that:
//
//   - OnLockAcquire and OnLockRelease, and the OnStateChange and
//     OnDispatch hooks a Wake causes, run inside the body's call, at the
//     instant of the event.
//   - Kill, Stall and Preempt are engine-side only: call them from
//     simulation setup code or engine events, never from a hook and
//     never from a body.
//   - A panic in a body — a model bug such as Release of a lock the
//     process does not hold, or any other — comes out of advance, that
//     is out of Engine.Run, with its value.
//   - Kill never calls a body again; there is nothing to unwind.
package kernel

import (
	"fmt"

	"procctl/internal/machine"
	"procctl/internal/sim"
)

// AppID identifies the application a process belongs to. AppNone marks
// system or otherwise uncontrollable processes.
type AppID int

// AppNone is the AppID of processes that belong to no controlled
// application (compilers, editors, daemons in the paper's terms).
const AppNone AppID = 0

// ProcState is the scheduling state of a process.
type ProcState int

// Process states. A process is created Embryo, becomes Runnable when
// spawned, alternates Runnable/Running under the scheduler, is Blocked
// while sleeping on a wait queue, and ends Exited.
const (
	Embryo ProcState = iota
	Runnable
	Running
	Blocked
	Exited
)

// String returns the conventional name of the state.
func (s ProcState) String() string {
	switch s {
	case Embryo:
		return "embryo"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// PID is a kernel process identifier.
type PID int64

// ProcStats accumulates per-process accounting, all in virtual time.
type ProcStats struct {
	CPUTime   sim.Duration // total time on a processor (incl. spin, reload)
	SpinTime  sim.Duration // CPU time burned spinning on held locks
	ReadyTime sim.Duration // time spent runnable but not running
	BlockTime sim.Duration // time spent asleep on wait queues

	Dispatches   int64 // times placed on a CPU
	Preemptions  int64 // involuntary descheduled (quantum expiry or forced)
	LockAcquires int64
}

// Process is a kernel-schedulable entity (the paper's "process": a
// preemptively scheduled, memory-sharing execution vehicle).
type Process struct {
	id   PID
	name string
	app  AppID

	state ProcState
	env   Env

	workingSet int64 // cache footprint in bytes

	// Scheduling state owned by the kernel.
	cpu         *cpuState // non-nil while Running
	epoch       uint64    // bumped on every deschedule; guards stale events
	started     bool      // body prefix has run
	active      bool      // dispatch overhead paid; actually executing
	pendingDone bool      // pending request satisfied while off-CPU
	runStart    sim.Time  // instant of current dispatch
	readySince  sim.Time
	blockSince  sim.Time
	quantumEnd  sim.Time

	// Pending engine events owned by this process. Each is canceled for
	// real when the process leaves the state that scheduled it (unrun,
	// kill), so no dead events linger in the engine's queue. The zero
	// EventID means "none pending".
	quantumEv sim.EventID // quantum expiry of the current dispatch
	startEv   sim.EventID // end of the current dispatch's overhead
	computeEv sim.EventID // completion of the current compute leg
	grantEv   sim.EventID // continuation after an off-CPU lock grant
	sleepEv   sim.EventID // wakeup of the current timed sleep

	// Per-process event callbacks, allocated once — the three every
	// process needs at Spawn, the other two at first use — so the
	// dispatch hot path schedules without allocating closures.
	quantumFn func()
	startFn   func()
	computeFn func()
	grantFn   func() // first off-CPU lock grant
	sleepFn   func() // first timed sleep

	// The last blocking request the body handed to the engine (Compute,
	// Sleep, SleepFor, Yield, exit, Acquire of a held lock), satisfied or
	// not. Requests that take no virtual time never pass through here.
	pending Request

	// Compute progress for the current Compute request.
	computeLeft  sim.Duration
	computeStart sim.Time // when the current compute leg began running
	computing    bool     // a compute leg is in progress on a CPU

	// Spin state.
	waitingLock *SpinLock
	spinStart   sim.Time

	// Locks currently held, in acquisition order: how many a process
	// holds is len(held) (the spin-flag policy and the preemption count
	// read it), and fault injection force-releases them on a crash.
	held []*SpinLock

	// Sleep state.
	sleepQ *WaitQueue

	// Fault-injection state.
	killed     bool     // crashed; reaped at the next scheduler touch
	stallUntil sim.Time // frozen until this instant when picked

	// Policy-visible state.
	usage    float64 // decayed CPU usage (BSD-style)
	priority int
	lastCPU  int

	// Stats is the accounting record; read it after the simulation.
	Stats ProcStats
}

// ID returns the process identifier.
func (p *Process) ID() PID { return p.id }

// Name returns the debug name given at Spawn.
func (p *Process) Name() string { return p.name }

// App returns the owning application, or AppNone.
func (p *Process) App() AppID { return p.app }

// State returns the current scheduling state.
func (p *Process) State() ProcState { return p.state }

// LastCPU returns the index of the CPU the process last ran on, or -1.
func (p *Process) LastCPU() int { return p.lastCPU }

// Usage returns the policy-maintained decayed CPU usage estimate.
func (p *Process) Usage() float64 { return p.usage }

// HoldingLocks reports whether the process currently holds any spinlock.
func (p *Process) HoldingLocks() bool { return len(p.held) > 0 }

func (p *Process) String() string {
	return fmt.Sprintf("proc %d (%s, app %d, %s)", p.id, p.name, p.app, p.state)
}

// footprint returns the cache footprint identity for the machine model.
func (p *Process) footprint() machine.FootprintID {
	return machine.FootprintID(p.id)
}

type reqKind int

const (
	reqNone reqKind = iota
	reqCompute
	reqAcquire
	reqSleep
	reqSleepFor
	reqYield
	reqExit
)

// Request is a blocking request: what a body returns to the engine when
// it cannot go on until virtual time has passed, built by the
// constructors below. The zero Request is not valid.
type Request struct {
	kind reqKind
	dur  sim.Duration // reqCompute, reqSleepFor
	lock *SpinLock    // reqAcquire
	q    *WaitQueue   // reqSleep
}

// Compute asks for d of CPU time, however many preemptions that takes.
// A non-positive d is satisfied at once: the body is resumed again at
// the same instant (Kernel.advance), as if the request had not been made.
func Compute(d sim.Duration) Request { return Request{kind: reqCompute, dur: d} }

// Acquire asks for the spinlock, busy-waiting (and burning CPU) while
// another process holds it. Only running processes can win a released
// lock; a waiter that is preempted resumes spinning when redispatched. A
// body tries Env.TryAcquire first and returns this only for a held lock:
// only spinning lets virtual time pass.
func Acquire(l *SpinLock) Request { return Request{kind: reqAcquire, lock: l} }

// Sleep blocks the process on q until another process wakes it. The
// process consumes no CPU while asleep: the simulation analogue of the
// paper's "wait for a signal that will not ordinarily be generated".
func Sleep(q *WaitQueue) Request { return Request{kind: reqSleep, q: q} }

// SleepFor blocks the process for d of virtual time without consuming
// CPU (e.g. waiting for terminal input or a timer). A non-positive d is
// satisfied at once, like Compute's.
func SleepFor(d sim.Duration) Request { return Request{kind: reqSleepFor, dur: d} }

// Yield surrenders the processor, moving the process to the back of the
// run queue.
func Yield() Request { return Request{kind: reqYield} }

// Exit ends the process: its body is never called again. Exiting while
// holding a spinlock panics.
func Exit() Request { return Request{kind: reqExit} }

// Script returns a body that runs steps in order, then exits. A step is
// a Request, a func(*Env), or a func(*Env) Request whose result, if not
// the zero Request, is made like a given one. An Acquire tries
// Env.TryAcquire first and blocks only on a held lock. Each call makes
// one body, for one process.
func Script(steps ...any) func(*Env) Request {
	next := 0
	return func(e *Env) Request {
		for next < len(steps) {
			var r Request
			switch s := steps[next].(type) {
			case Request:
				r = s
			case func(*Env):
				s(e)
			case func(*Env) Request:
				r = s(e)
			default:
				panic(fmt.Sprintf("kernel: script step %d is a %T", next, s))
			}
			next++
			if r.kind != reqNone && (r.kind != reqAcquire || !e.TryAcquire(r.lock)) {
				return r
			}
		}
		return Exit()
	}
}

// Env is a simulated process's handle to the machine. All methods must be
// called only from the process body.
type Env struct {
	p   *Process
	k   *Kernel
	rng *sim.RNG

	// resume is the body: called (only by Kernel.advance) each time the
	// last blocking request has been satisfied, it returns the next one.
	resume func(*Env) Request
}

// Proc returns the process this environment belongs to.
func (e *Env) Proc() *Process { return e.p }

// Now returns the current virtual time. Bodies only execute while the
// engine waits in advance, so the read is race-free.
func (e *Env) Now() sim.Time { return e.k.eng.Now() }

// Rand returns the process's private random stream.
func (e *Env) Rand() *sim.RNG { return e.rng }

// TryAcquire takes the spinlock if it is free and reports whether it
// did. It takes no virtual time; a body that gets false returns
// Acquire(l).
func (e *Env) TryAcquire(l *SpinLock) bool {
	if l.holder != nil {
		return false
	}
	e.k.takeLock(l, e.p, 0)
	return true
}

// Release unlocks a spinlock held by this process. Releasing a lock the
// process does not hold panics: it is always a model bug, and like any
// body panic it surfaces from Engine.Run.
func (e *Env) Release(l *SpinLock) {
	if l.holder != e.p {
		panic(fmt.Sprintf("kernel: %v releasing %q held by %v", e.p, l.name, l.holder))
	}
	e.k.releaseLock(l, e.p, false)
}

// Wake unblocks up to n processes sleeping on q, in FIFO order. It
// takes no virtual time, so the body performs it itself.
func (e *Env) Wake(q *WaitQueue, n int) {
	if n <= 0 {
		return
	}
	e.k.WakeQueue(q, n)
}

// debugPending describes the process's last blocking request — the one
// it is still waiting on, if it is waiting — for tests. Requests the
// body performs itself (an uncontended Acquire, Release, Wake) never
// show here.
func (p *Process) debugPending() string {
	switch p.pending.kind {
	case reqCompute:
		return fmt.Sprintf("compute(left=%v, computing=%v)", p.computeLeft, p.computing)
	case reqAcquire:
		return fmt.Sprintf("acquire(%s)", p.pending.lock.name)
	case reqSleep:
		return "sleep"
	case reqSleepFor:
		return "sleepfor"
	case reqYield:
		return "yield"
	case reqExit:
		return "exit"
	default:
		return "none"
	}
}
