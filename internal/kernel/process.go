// Package kernel simulates the operating-system layer of a multiprogrammed
// shared-memory multiprocessor: kernel processes, preemptive scheduling
// with time quanta, spinlocks whose waiters burn CPU, and sleep/wakeup
// queues (the paper's signal-based suspension).
//
// Simulated process bodies are ordinary Go functions run as coroutines
// (iter.Pull, see coroutine.go): each body has its own goroutine but
// runs in strict alternation with the simulation engine — exactly one of
// {the engine, one body} executes at any moment — so bodies may freely
// share data structures and the simulation stays deterministic. A body
// interacts with the machine only through its Env: Compute consumes CPU
// time, Acquire/Release operate a spinlock, Sleep and Wake block and
// unblock on a wait queue, Yield surrenders the processor.
//
// # The request path
//
// A body executes only while its process is Running, past its dispatch
// overhead, and the engine is suspended in Kernel.advance, inside the
// coroutine's next, until the body yields its next request. The two
// coroutine switches — a direct hand-off on the same thread, which the
// Go scheduler never sees — order all memory between the two, with the
// happens-before edges of a channel hand-off (`make race` checks the
// protocol). While it runs, the body therefore has exclusive access to
// the kernel.
//
// A request whose completion needs virtual time to pass — Compute,
// Sleep, SleepFor, Yield, exit, Acquire of a held lock (spinning burns
// time) — is handed to the engine: one rendezvous, two coroutine
// switches. A request that completes at the current instant — Acquire
// of a free lock, Release (including the hand-off to the first spinning
// waiter), Wake — is performed by the body itself, calling the same
// takeLock, releaseLock and WakeQueue the engine-side paths call. It
// schedules the same events, fires the same hooks and bumps the same
// counters in the same order, so event firing order is unchanged; it
// just does not switch to the engine to do it. What follows from that:
//
//   - OnLockAcquire and OnLockRelease, and the OnStateChange and
//     OnDispatch hooks a Wake causes, may run on a body's goroutine
//     (the coroutine's). Still one at a time, still at the instant of
//     the event.
//   - Kill, Stall and Preempt are engine-side only: call them from
//     simulation setup code or engine events, never from a hook and
//     never from a body.
//   - A panic in a body — a model bug such as Release of a lock the
//     process does not hold, or any other — comes out of next, that is
//     out of Engine.Run on the driver's goroutine, with its value.
//   - Kill and Shutdown unwind a body before they return: its deferred
//     functions have run by then.
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
	pending request

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

type request struct {
	kind reqKind
	dur  sim.Duration // reqCompute
	lock *SpinLock    // reqAcquire
	q    *WaitQueue   // reqSleep
}

// killedError unwinds a process body when its process is killed or the
// kernel shuts down.
type killedError struct{}

func (killedError) Error() string { return "kernel: process killed at shutdown" }

// Env is a simulated process's handle to the machine. All methods must be
// called only from the process body.
type Env struct {
	p   *Process
	k   *Kernel
	rng *sim.RNG

	// The body's coroutine (Spawn): the engine side calls next (advance)
	// and stop (kill, shutdown), the body — once started — yield.
	next  func() (request, bool)
	stop  func()
	yield func(request) bool
}

// do performs the rendezvous: hand the request to the kernel and wait for
// it to be satisfied.
func (e *Env) do(r request) {
	if !e.yield(r) {
		panic(killedError{})
	}
}

// Proc returns the process this environment belongs to.
func (e *Env) Proc() *Process { return e.p }

// Kernel returns the owning kernel (for read-only inspection).
func (e *Env) Kernel() *Kernel { return e.k }

// Now returns the current virtual time. Bodies only execute while the
// engine is parked, so the read is race-free.
func (e *Env) Now() sim.Time { return e.k.eng.Now() }

// Rand returns the process's private random stream.
func (e *Env) Rand() *sim.RNG { return e.rng }

// Compute consumes d of CPU time. The call returns when the process has
// accumulated d of execution, however many preemptions that takes.
// Non-positive durations return immediately.
func (e *Env) Compute(d sim.Duration) {
	if d <= 0 {
		return
	}
	e.do(request{kind: reqCompute, dur: d})
}

// Acquire takes the spinlock, busy-waiting (and burning CPU) while it is
// held by another process. Only running processes can win a released
// lock; a waiter that is preempted resumes spinning when redispatched.
// A free lock is taken here, by the body itself (see the package
// comment); only a held one costs a rendezvous, because only spinning
// lets virtual time pass.
func (e *Env) Acquire(l *SpinLock) {
	if l.holder == nil {
		e.k.takeLock(l, e.p, 0)
		return
	}
	e.do(request{kind: reqAcquire, lock: l})
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
func (e *Env) Sleep(q *WaitQueue) {
	e.do(request{kind: reqSleep, q: q})
}

// SleepFor blocks the process for d of virtual time without consuming
// CPU (e.g. waiting for terminal input or a timer). Non-positive
// durations return immediately.
func (e *Env) SleepFor(d sim.Duration) {
	if d <= 0 {
		return
	}
	e.do(request{kind: reqSleepFor, dur: d})
}

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
func (e *Env) Yield() {
	e.do(request{kind: reqYield})
}

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
