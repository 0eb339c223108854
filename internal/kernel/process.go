// Package kernel simulates the operating-system layer of a multiprogrammed
// shared-memory multiprocessor: kernel processes, preemptive scheduling
// with time quanta, spinlocks whose waiters burn CPU, and sleep/wakeup
// queues (the paper's signal-based suspension).
//
// A process body is something that, each time its last blocking request
// has been satisfied, is resumed and returns the next one. It comes in
// two forms with that one definition:
//
//   - A resumable body (SpawnResumable) is literally that: a function
//     from *Env to Request — a state machine — called on the engine's
//     goroutine. It holds no goroutine and no stack between calls. The
//     hot bodies are written this way: the threads runtime's worker and
//     the background load, so a figure run creates no coroutine at all.
//   - A function body (Spawn) is an ordinary Go function that blocks in
//     its Env's methods — Compute consumes CPU time, Acquire/Release
//     operate a spinlock, Sleep and Wake block and unblock on a wait
//     queue, Yield surrenders the processor. Spawn adapts it to the
//     definition by running it as a coroutine (iter.Pull, see
//     coroutine.go) whose resume is "switch to it until it parks in its
//     next request". General bodies and tests use it.
//
// Either way exactly one of {the engine, one body} executes at any
// moment, so bodies may freely share data structures and the simulation
// stays deterministic.
//
// # The request path
//
// A body executes only while its process is Running, past its dispatch
// overhead, and the engine is inside Kernel.advance — the only place a
// body is resumed — until the body hands back its next request. While
// it runs, the body therefore has exclusive access to the kernel. For a
// resumable body that is a function call and its return; for a function
// body it is two coroutine switches — a direct hand-off on the same
// thread, which the Go scheduler never sees, ordering all memory between
// the two with the happens-before edges of a channel hand-off (`make
// race` checks the protocol).
//
// A request whose completion needs virtual time to pass — Compute,
// Sleep, SleepFor, Yield, Exit, Acquire of a held lock (spinning burns
// time) — is a Request, handed to the engine: one rendezvous. (A Compute
// or SleepFor of no duration is the exception that proves the rule:
// advance answers it by resuming the body again.) A request that
// completes at the current instant — taking a free lock (Env.TryAcquire,
// which Env.Acquire tries first), Release (including the hand-off to the
// first spinning waiter), Wake — is performed by the body itself,
// calling the same takeLock, releaseLock and WakeQueue the engine-side
// paths call. It schedules the same events, fires the same hooks and
// bumps the same counters in the same order, so event firing order does
// not depend on the body's form or on who performed the request. What
// follows from that:
//
//   - OnLockAcquire and OnLockRelease, and the OnStateChange and
//     OnDispatch hooks a Wake causes, run on whatever goroutine the body
//     runs on: the engine's for a resumable body, the coroutine's for a
//     function body. Still one at a time, still at the instant of the
//     event.
//   - Kill, Stall and Preempt are engine-side only: call them from
//     simulation setup code or engine events, never from a hook and
//     never from a body.
//   - A panic in a body — a model bug such as Release of a lock the
//     process does not hold, or any other — comes out of advance, that
//     is out of Engine.Run on the driver's goroutine, with its value.
//   - Kill and Shutdown never resume a body again. A function body is
//     unwound before they return: its deferred functions have run by
//     then. A resumable body has nothing to unwind.
//   - A resumable body must not call the Env's blocking methods
//     (Compute, Acquire of a held lock, Sleep, SleepFor, Yield): it
//     returns those requests. Doing so panics.
//   - Process.DebugPending reports the last blocking request; requests
//     the body performed itself never appear in it.
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
	CPUTime    sim.Duration // total time on a processor (incl. spin, reload)
	SpinTime   sim.Duration // CPU time burned spinning on held locks
	ReloadTime sim.Duration // CPU time refilling corrupted caches
	SwitchTime sim.Duration // context-switch overhead charged to dispatches
	ReadyTime  sim.Duration // time spent runnable but not running
	BlockTime  sim.Duration // time spent asleep on wait queues

	Dispatches   int64 // times placed on a CPU
	Preemptions  int64 // involuntary descheduled (quantum expiry or forced)
	LockAcquires int64
	LockSpins    int64 // acquisitions that had to wait
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

	// Locks currently held, in acquisition order (fault injection
	// force-releases them on a crash).
	held []*SpinLock

	// Sleep state.
	sleepQ *WaitQueue

	// Fault-injection state.
	killed     bool     // crashed; reaped at the next scheduler touch
	stallUntil sim.Time // frozen until this instant when picked

	// Policy-visible state.
	usage     float64 // decayed CPU usage (BSD-style)
	priority  int
	lastCPU   int
	lockDepth int // spinlocks currently held (spin-flag policy reads this)

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

// WorkingSet returns the cache footprint in bytes.
func (p *Process) WorkingSet() int64 { return p.workingSet }

// LastCPU returns the index of the CPU the process last ran on, or -1.
func (p *Process) LastCPU() int { return p.lastCPU }

// Usage returns the policy-maintained decayed CPU usage estimate.
func (p *Process) Usage() float64 { return p.usage }

// Priority returns the policy-maintained priority (lower is better).
func (p *Process) Priority() int { return p.priority }

// HoldingLocks reports whether the process currently holds any spinlock.
func (p *Process) HoldingLocks() bool { return p.lockDepth > 0 }

// Spinning reports whether the process is busy-waiting for a spinlock.
func (p *Process) Spinning() bool { return p.waitingLock != nil }

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

// Request is a blocking request: what a body hands the engine when it
// cannot go on until virtual time has passed. A function body (Spawn)
// makes them through its Env's methods; a resumable body
// (SpawnResumable) returns them, built by the constructors below. The
// zero Request is not valid.
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
// another process holds it. A resumable body tries Env.TryAcquire first
// and returns this only for a held lock, as Env.Acquire does.
func Acquire(l *SpinLock) Request { return Request{kind: reqAcquire, lock: l} }

// Sleep blocks the process on q until another process wakes it.
func Sleep(q *WaitQueue) Request { return Request{kind: reqSleep, q: q} }

// SleepFor blocks the process for d of virtual time without consuming
// CPU. A non-positive d is satisfied at once, like Compute's.
func SleepFor(d sim.Duration) Request { return Request{kind: reqSleepFor, dur: d} }

// Yield surrenders the processor, moving the process to the back of the
// run queue.
func Yield() Request { return Request{kind: reqYield} }

// Exit ends the process: its body is never resumed again. Exiting while
// holding a spinlock panics, as it does for a function body that returns.
func Exit() Request { return Request{kind: reqExit} }

// killedError unwinds a function body when its process is killed or the
// kernel shuts down.
type killedError struct{}

func (killedError) Error() string { return "kernel: process killed at shutdown" }

// Env is a simulated process's handle to the machine. All methods must be
// called only from the process body.
type Env struct {
	p   *Process
	k   *Kernel
	rng *sim.RNG

	// resume is the body: called (only by Kernel.advance) each time the
	// last blocking request has been satisfied, it returns the next one.
	resume func(*Env) Request

	// A function body's coroutine (Spawn), nil for a resumable body: the
	// engine side calls stop (kill, shutdown), the body — once started —
	// yield, which parks it until resume's next switch.
	stop  func()
	yield func(Request) bool
}

// do performs the rendezvous of a function body: hand the request to the
// kernel and wait for it to be satisfied.
func (e *Env) do(r Request) {
	if e.yield == nil {
		panic(fmt.Sprintf("kernel: %v is a resumable body: it returns its blocking requests, it cannot call them", e.p))
	}
	if !e.yield(r) {
		panic(killedError{})
	}
}

// unwind ends a function body that is parked in a request (or never
// started): the request panics killedError out through the body's
// deferred functions, which have run when unwind returns. It is a no-op
// on a body that has returned or been unwound, and on a resumable body,
// which holds nothing: that one is just never resumed again.
func (e *Env) unwind() {
	if e.stop != nil {
		e.stop()
	}
}

// Proc returns the process this environment belongs to.
func (e *Env) Proc() *Process { return e.p }

// Kernel returns the owning kernel (for read-only inspection).
func (e *Env) Kernel() *Kernel { return e.k }

// Now returns the current virtual time. Bodies only execute while the
// engine waits in advance, so the read is race-free.
func (e *Env) Now() sim.Time { return e.k.eng.Now() }

// Rand returns the process's private random stream.
func (e *Env) Rand() *sim.RNG { return e.rng }

// Compute consumes d of CPU time. The call returns when the process has
// accumulated d of execution, however many preemptions that takes.
// Non-positive durations return at the same instant.
func (e *Env) Compute(d sim.Duration) { e.do(Compute(d)) }

// Acquire takes the spinlock, busy-waiting (and burning CPU) while it is
// held by another process. Only running processes can win a released
// lock; a waiter that is preempted resumes spinning when redispatched.
// A free lock is taken here, by the body itself (see the package
// comment); only a held one costs a rendezvous, because only spinning
// lets virtual time pass.
func (e *Env) Acquire(l *SpinLock) {
	if !e.TryAcquire(l) {
		e.do(Acquire(l))
	}
}

// TryAcquire takes the spinlock if it is free and reports whether it
// did. It takes no virtual time, so either body form calls it; a
// resumable body that gets false returns Acquire(l).
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

// Sleep blocks the process on q until another process wakes it. The
// process consumes no CPU while asleep. This is the simulation analogue
// of the paper's "wait for a signal that will not ordinarily be
// generated".
func (e *Env) Sleep(q *WaitQueue) { e.do(Sleep(q)) }

// SleepFor blocks the process for d of virtual time without consuming
// CPU (e.g. waiting for terminal input or a timer). Non-positive
// durations return at the same instant.
func (e *Env) SleepFor(d sim.Duration) { e.do(SleepFor(d)) }

// Wake unblocks up to n processes sleeping on q, in FIFO order. It
// takes no virtual time, so the body performs it itself.
func (e *Env) Wake(q *WaitQueue, n int) {
	if n <= 0 {
		return
	}
	e.k.WakeQueue(q, n)
}

// Yield surrenders the processor, moving the process to the back of the
// run queue.
func (e *Env) Yield() { e.do(Yield()) }

// DebugPending describes the process's last blocking request — the one
// it is still waiting on, if it is waiting — for tests and diagnostics
// only. Requests the body performs itself (an uncontended Acquire,
// Release, Wake) never show here.
func (p *Process) DebugPending() string {
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

// Active reports whether the process is past its dispatch overhead and
// actually executing instructions (diagnostics).
func (p *Process) Active() bool { return p.active }
