package kernel

import (
	"fmt"
	"slices"

	"procctl/internal/machine"
	"procctl/internal/metrics"
	"procctl/internal/sim"
)

// Config holds kernel-wide scheduling parameters.
type Config struct {
	// Quantum is the default time slice. The default is 30 ms (a few
	// clock ticks), calibrated so that the uncontrolled multiprogrammed
	// runs degrade the way the paper's Figure 1/4 measurements do; the
	// quantum ablation (ABL-QUANTUM in DESIGN.md) sweeps it.
	Quantum sim.Duration
	// QuantumJitter models timer-tick alignment: each dispatch's slice
	// is extended by a uniform random amount in [0, QuantumJitter). A
	// real kernel's quantum ends at a clock tick, not an exact offset
	// from dispatch, so slices are never perfectly synchronized across
	// processors. New defaults the zero value to 10 ms (one 100 Hz
	// tick); pass NoJitter for exact, deterministic quanta.
	QuantumJitter sim.Duration
}

// NoJitter disables quantum jitter: every slice ends exactly Quantum
// after dispatch. Tests that assert precise preemption instants use it;
// a zero QuantumJitter means "default", not "off".
const NoJitter sim.Duration = -1

// DefaultConfig returns the UMAX-like configuration used throughout the
// paper reproduction.
func DefaultConfig() Config {
	return Config{
		Quantum:       30 * sim.Millisecond,
		QuantumJitter: 10 * sim.Millisecond,
	}
}

// cpuState is the kernel's per-processor scheduling record, wrapping the
// hardware model.
type cpuState struct {
	hw      *machine.CPU
	running *Process
}

// Kernel owns the processors and processes and drives dispatching. All
// methods must be called while the caller is the one goroutine of the
// simulation that is running (experiment setup code, an engine event
// callback, or a process body between two of its requests — see the
// package comment), never from concurrent goroutines. Kill, Stall and
// Preempt are narrower still: setup code and engine events only.
type Kernel struct {
	eng  *sim.Engine
	mac  *machine.Machine
	pol  Policy
	cfg  Config
	cpus []cpuState

	// procs holds every process ever spawned, in spawn order: process
	// PID n is procs[n-1]. The processes themselves live in slab
	// chunks (newProcess).
	procs []*Process
	slab  []Process // the chunk the next process comes from
	nlive int
	apps  AppID // the largest AppID spawned so far

	locks []*SpinLock // every lock made by NewSpinLock

	rng  *sim.RNG
	met  kernelMetrics
	born sim.Time // when New ran: the start of every CPU's busy + idle time

	// rendezvous counts engine→body→engine hand-offs (calls to advance).
	// Tests read it; it is deliberately not a metrics series, so the
	// snapshot goldens do not depend on how requests are delivered.
	rendezvous uint64

	// Optional hooks for tracing. Invoked synchronously at the instant of
	// the event — inside a body's call for the requests the body performs
	// itself (OnLockAcquire, OnLockRelease, and the state changes and
	// dispatches a Wake causes). A hook must not call Kill, Stall or
	// Preempt.
	// Installers that replace a hook must chain the previous value.
	OnSpawn       func(*Process)
	OnExit        func(*Process)
	OnStateChange func(p *Process, old, new ProcState)
	// OnDispatch fires after a process is placed on a CPU (its state is
	// already Running); wait is the ready-queue latency the dispatch just
	// ended, switchCost and reloadCost the overhead the machine charged
	// for it before the process runs.
	OnDispatch func(p *Process, cpu int, wait, switchCost, reloadCost sim.Duration)
	// OnLockContend fires when a running process starts a busy-wait leg
	// on l: first marks the start of the whole contended acquisition,
	// !first a leg resumed after preemption. holder is the process
	// keeping it waiting (its run state at this instant is what decides
	// whether the spin is recoverable or wasted on a preempted holder).
	OnLockContend func(p *Process, l *SpinLock, holder *Process, first bool)
	// OnLockAcquire fires when p takes l; spun is the busy-wait time of
	// the final leg (zero when the lock was free or granted off-CPU).
	OnLockAcquire func(p *Process, l *SpinLock, spun sim.Duration)
	// OnLockRelease fires when p releases l after holding it for held;
	// forced marks a release performed by fault recovery on a crashed
	// holder's behalf.
	OnLockRelease func(p *Process, l *SpinLock, held sim.Duration, forced bool)
	// OnAnnotation receives events stamped into the kernel's causal
	// stream by the layers above it (threads runtime, control server).
	OnAnnotation func(Annotation)
}

// New builds a kernel over mac using the given scheduling policy.
func New(eng *sim.Engine, mac *machine.Machine, pol Policy, cfg Config) *Kernel {
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultConfig().Quantum
	}
	switch {
	case cfg.QuantumJitter == 0:
		cfg.QuantumJitter = DefaultConfig().QuantumJitter
	case cfg.QuantumJitter < 0:
		cfg.QuantumJitter = 0 // NoJitter: exact quanta
	}
	k := &Kernel{
		eng:  eng,
		mac:  mac,
		pol:  pol,
		cfg:  cfg,
		cpus: make([]cpuState, mac.NumCPU()),
		rng:  eng.RNG().Split(),
		met:  newKernelMetrics(metrics.NewRegistry()),
		born: eng.Now(),
	}
	for i := range k.cpus {
		k.cpus[i].hw = mac.CPU(i)
	}
	k.met.reg.OnCollect(k.collect)
	pol.Attach(k)
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Machine returns the hardware model.
func (k *Kernel) Machine() *machine.Machine { return k.mac }

// Policy returns the scheduling policy.
func (k *Kernel) Policy() Policy { return k.pol }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// NumCPU returns the processor count.
func (k *Kernel) NumCPU() int { return len(k.cpus) }

// Live returns the number of processes not yet exited.
func (k *Kernel) Live() int { return k.nlive }

// Processes returns every process ever spawned, in spawn order. Callers
// must treat the slice as read-only.
func (k *Kernel) Processes() []*Process { return k.procs }

// Lookup returns the process with the given PID, or nil. PIDs are
// handed out 1, 2, 3, … in spawn order.
func (k *Kernel) Lookup(id PID) *Process {
	if id < 1 || id > PID(len(k.procs)) {
		return nil
	}
	return k.procs[id-1]
}

// SpawnResumable creates a runnable process named name belonging to
// app, with the given cache working-set size in bytes, whose body is
// resume: each time the process's last blocking request has been
// satisfied — the first time, when it first runs — the engine calls
// resume and the process carries out the Request it returns; Exit()
// ends it. Between two requests resume may take a free lock
// (Env.TryAcquire), Release, Wake and read the Env. It runs on the
// engine's goroutine and owns no stack between calls, so Kill has
// nothing to unwind: it just never calls it again.
func (k *Kernel) SpawnResumable(name string, app AppID, workingSet int64, resume func(*Env) Request) *Process {
	return k.spawn(label{name, "", -1}, app, workingSet, resume)
}

// SpawnMember is SpawnResumable for member nth of a family of
// processes (an application's workers): the process is named family,
// sep and nth in decimal — "fft", "/w", 3 is fft/w3 — but the name is
// formatted only when read.
func (k *Kernel) SpawnMember(family, sep string, nth int, app AppID, workingSet int64, resume func(*Env) Request) *Process {
	return k.spawn(label{family, sep, nth}, app, workingSet, resume)
}

// procChunk and maxProcChunk bound the slab chunks processes are
// allocated in: the first chunk of a kernel holds procChunk, each next
// one twice as many as the last, up to maxProcChunk.
const (
	procChunk    = 16
	maxProcChunk = 256
)

// newProcess returns a zeroed Process from the kernel's slab, and makes
// room for it in procs. Spawning n processes allocates O(log n) times,
// not n times; a chunk lives as long as any of its processes is
// referenced.
func (k *Kernel) newProcess() *Process {
	if len(k.slab) == cap(k.slab) {
		n := min(max(2*cap(k.slab), procChunk), maxProcChunk)
		k.slab = make([]Process, 0, n)
		k.procs = slices.Grow(k.procs, n)
	}
	k.slab = k.slab[:len(k.slab)+1]
	return &k.slab[len(k.slab)-1]
}

func (k *Kernel) spawn(name label, app AppID, workingSet int64, resume func(*Env) Request) *Process {
	if app < 0 {
		panic(fmt.Sprintf("kernel: negative AppID %d", app))
	}
	p := k.newProcess()
	*p = Process{
		id:         PID(len(k.procs) + 1),
		name:       name,
		app:        app,
		workingSet: workingSet,
		lastCPU:    -1,
		state:      Embryo,
	}
	p.held = p.heldBuf[:0]
	e := &p.env
	e.p, e.k, e.rng, e.resume = p, k, *k.rng.Split(), resume
	// One closure per event kind for the process's whole lifetime; the
	// dispatch hot path then schedules them with zero allocations.
	p.quantumFn = func() { k.quantumExpire(p) }
	p.startFn = func() { k.beginRun(p) }
	p.computeFn = func() { k.computeDone(p) }
	k.procs = append(k.procs, p)
	k.apps = max(k.apps, app)
	k.nlive++
	k.setState(p, Runnable)
	k.pol.Enqueue(p)
	if k.OnSpawn != nil {
		k.OnSpawn(p)
	}
	k.kickIdle()
	return p
}

// Spawn creates a process like SpawnResumable whose body runs once, at
// the process's first resume, and then exits: it cannot block. It is
// kept only for the repo benchmark's kernel.spawn_us probe; ROADMAP item
// 2(a) deletes both.
func (k *Kernel) Spawn(name string, app AppID, workingSet int64, body func(*Env)) *Process {
	return k.SpawnResumable(name, app, workingSet, func(e *Env) Request { body(e); return Exit() })
}

// Shutdown does nothing: a body holds no goroutine and no stack, so a
// run that ends leaves nothing to unwind. It is kept only for the repo
// benchmark's kernel.spawn_us probe; ROADMAP item 2(a) deletes both.
func (k *Kernel) Shutdown() {}

// advance calls p's body for its next blocking request and initializes
// the request's progress state. This is the rendezvous: the only place
// the engine hands control to a body. A Compute or SleepFor of no
// duration is satisfied on the spot — the body is called again, nothing
// else having happened — which is the one place that rule lives.
// Requests that take no virtual time never get here: the body performs
// them itself (Env.TryAcquire, Env.Release, Env.Wake).
func (k *Kernel) advance(p *Process) {
	k.rendezvous++
	e := &p.env
	r := e.resume(e)
	for (r.kind == reqCompute || r.kind == reqSleepFor) && r.dur <= 0 {
		r = e.resume(e)
	}
	p.pending = r
	if r.kind == reqCompute {
		p.computeLeft = r.dur
	}
}

// setState transitions p, keeping time accounting.
func (k *Kernel) setState(p *Process, next ProcState) {
	old := p.state
	now := k.eng.Now()
	switch old {
	case Runnable:
		p.Stats.ReadyTime += now.Sub(p.readySince)
	case Blocked:
		p.Stats.BlockTime += now.Sub(p.blockSince)
	}
	p.state = next
	switch next {
	case Runnable:
		p.readySince = now
	case Blocked:
		p.blockSince = now
	}
	if k.OnStateChange != nil {
		k.OnStateChange(p, old, next)
	}
}

// kickIdle dispatches every idle CPU, in index order.
func (k *Kernel) kickIdle() {
	for i := range k.cpus {
		if c := &k.cpus[i]; c.running == nil {
			k.dispatch(c)
		}
	}
}

// dispatch places the policy's next process on cpu and schedules its
// execution after the dispatch overhead (context switch + cache reload).
func (k *Kernel) dispatch(cpu *cpuState) {
	if cpu.running != nil {
		return
	}
	now := k.eng.Now()
	var p *Process
	for {
		p = k.pol.PickNext(cpu.hw.ID())
		if p == nil {
			break
		}
		if p.killed {
			// A crashed process's queue husk: finish its teardown and
			// pick again.
			k.reap(p)
			continue
		}
		if p.stallUntil > now {
			// A pending stall fault: freeze instead of running.
			k.stallPicked(p)
			continue
		}
		break
	}
	if p == nil {
		return // idle: no record to keep, see busyIdle
	}
	if p.state != Runnable {
		panic(fmt.Sprintf("kernel: policy %s picked %v", k.pol.Name(), p))
	}
	wait := now.Sub(p.readySince)
	k.met.runqWait.Observe(int64(wait))
	if p.lastCPU >= 0 && p.lastCPU != cpu.hw.ID() {
		k.met.migrations.Inc()
	}
	cpu.running = p
	p.cpu = cpu
	p.lastCPU = cpu.hw.ID()
	p.runStart = now
	k.setState(p, Running) // after CPU assignment, so hooks see where
	p.Stats.Dispatches++

	sw, rl := cpu.hw.Dispatch(p.footprint(), p.workingSet)
	if k.OnDispatch != nil {
		k.OnDispatch(p, cpu.hw.ID(), wait, sw, rl)
	}
	overhead := sw + rl

	q := k.pol.QuantumFor(p)
	if q <= 0 {
		q = k.cfg.Quantum
	}
	if k.cfg.QuantumJitter > 0 {
		q += k.rng.Duration(0, k.cfg.QuantumJitter-1)
	}
	p.quantumEnd = now.Add(overhead + q)
	p.quantumEv = k.eng.Schedule(p.quantumEnd, p.quantumFn)
	p.startEv = k.eng.Schedule(now.Add(overhead), p.startFn)
}

// beginRun fires when the current dispatch's overhead has been paid: the
// process starts executing instructions. The event is canceled by unrun
// if the process is descheduled first, so no staleness guard is needed.
func (k *Kernel) beginRun(p *Process) {
	p.startEv = sim.EventID{}
	p.active = true
	k.runProc(p)
}

// runProc processes p's pending blocking request at the current instant,
// resuming the body for the next one whenever the request completes
// without time passing (a lock found free at redispatch), until p
// blocks, spins, deschedules, or starts a timed compute.
func (k *Kernel) runProc(p *Process) {
	if !p.started {
		p.started = true
		k.advance(p)
	}
	if p.pendingDone {
		// The previous request (sleep, yield) was satisfied while the
		// process was off-CPU; capture the next one now.
		p.pendingDone = false
		k.advance(p)
	}
	for {
		now := k.eng.Now()
		switch r := p.pending; r.kind {
		case reqCompute:
			k.startComputeLeg(p)
			return

		case reqAcquire:
			l := r.lock
			switch {
			case l.holder == p:
				// Granted by a release while we were preempted or
				// still paying dispatch overhead.
				k.advance(p)
			case l.holder == nil:
				k.takeLock(l, p, 0)
				k.advance(p)
			default:
				first := p.waitingLock == nil
				if first {
					p.waitingLock = l
					l.waiters.Push(p)
					l.Contended++
				}
				p.spinStart = now
				if k.OnLockContend != nil {
					k.OnLockContend(p, l, l.holder, first)
				}
				return // spin: burn CPU until release or quantum expiry
			}

		case reqSleep:
			r.q.add(p)
			p.sleepQ = r.q
			k.unrun(p, Blocked)
			return

		case reqSleepFor:
			d := r.dur
			k.unrun(p, Blocked)
			if p.sleepFn == nil {
				p.sleepFn = func() { k.sleepDone(p) }
			}
			p.sleepEv = k.eng.After(d, p.sleepFn)
			return

		case reqYield:
			// The yield is satisfied by descheduling; the body resumes
			// past it at the next dispatch.
			p.pendingDone = true
			k.unrun(p, Runnable)
			return

		case reqExit:
			k.exit(p)
			return

		default:
			panic(fmt.Sprintf("kernel: %v issued unknown request %d", p, r.kind))
		}
	}
}

// startComputeLeg begins (or resumes) executing p's pending compute on
// its current CPU. If the remaining work fits in the remaining quantum,
// a completion event is scheduled; otherwise the quantum event will
// preempt mid-compute. Called from runProc and again when a policy
// extends the quantum (the completion may only now fit).
func (k *Kernel) startComputeLeg(p *Process) {
	now := k.eng.Now()
	rem := p.quantumEnd.Sub(now)
	// A rescheduled leg supersedes any still-pending completion (e.g.
	// after a quantum extension whose expiry tied with the completion
	// instant): cancel it outright instead of guarding with a sequence
	// number.
	if p.computeEv.Valid() {
		k.eng.Cancel(p.computeEv)
		p.computeEv = sim.EventID{}
	}
	p.computing = true
	p.computeStart = now
	if p.computeLeft <= rem {
		p.computeEv = k.eng.After(p.computeLeft, p.computeFn)
	}
}

// computeDone fires when the current compute leg runs to completion
// within its quantum. Preemption, blocking, and rescheduled legs cancel
// the event, so no staleness guard is needed.
func (k *Kernel) computeDone(p *Process) {
	p.computeEv = sim.EventID{}
	p.computing = false
	p.computeLeft = 0
	k.advance(p)
	k.runProc(p)
}

// takeLock makes p the holder of the free lock l at the current
// instant; spun is the busy-wait time of the leg that won it. It is the
// one definition of "acquire": runProc, Env.TryAcquire and grantLock all
// end here.
func (k *Kernel) takeLock(l *SpinLock, p *Process, spun sim.Duration) {
	if p.waitingLock == l {
		// A waiter preempted mid-spin that finds the lock free when it
		// runs again. grantLock takes its waiter off by position first.
		l.waiters.remove(p)
		p.waitingLock = nil
	}
	l.holder = p
	l.lockedAt = k.eng.Now()
	l.Acquires++
	p.held = append(p.held, l)
	p.Stats.LockAcquires++
	if k.OnLockAcquire != nil {
		k.OnLockAcquire(p, l, spun)
	}
}

// releaseLock ends p's hold on l at the current instant and hands the
// lock to the earliest waiter that is spinning on a processor, if any.
// The caller has checked that p is the holder. It is the one definition
// of "release": Env.Release ends here, and so does fault recovery on a
// crashed holder's behalf (forced).
func (k *Kernel) releaseLock(l *SpinLock, p *Process, forced bool) {
	held := k.eng.Now().Sub(l.lockedAt)
	l.HeldTime += held
	// Locks are mostly released innermost first: l is then the top of
	// held, and the search ends at once.
	i := len(p.held) - 1
	for p.held[i] != l {
		i--
	}
	p.held = append(p.held[:i], p.held[i+1:]...)
	l.holder = nil
	if forced {
		l.ForcedReleases++
	}
	if k.OnLockRelease != nil {
		k.OnLockRelease(p, l, held, forced)
	}
	if i := l.firstRunningWaiter(); i >= 0 {
		k.grantLock(l, l.waiters.removeAt(i))
	}
}

// grantLock hands l to running waiter w, just taken off l's waiters, and
// schedules w's continuation.
func (k *Kernel) grantLock(l *SpinLock, w *Process) {
	now := k.eng.Now()
	spun := now.Sub(w.spinStart)
	w.Stats.SpinTime += spun
	w.waitingLock = nil
	k.takeLock(l, w, spun)
	if w.grantFn == nil {
		w.grantFn = func() { k.grantRun(w) }
	}
	w.grantEv = k.eng.Schedule(now, w.grantFn)
}

// grantRun continues a running waiter that was just handed a lock by a
// releasing (or crashing) holder. A preemption squeezed between the
// grant and this continuation cancels the event via unrun.
func (k *Kernel) grantRun(p *Process) {
	p.grantEv = sim.EventID{}
	k.advance(p)
	k.runProc(p)
}

// sleepDone fires when a timed sleep elapses. Kill cancels the event,
// so no staleness guard is needed.
func (k *Kernel) sleepDone(p *Process) {
	p.sleepEv = sim.EventID{}
	k.setState(p, Runnable)
	p.pendingDone = true // the timed sleep is over
	k.pol.Enqueue(p)
	k.kickIdle()
}

// WakeQueue unblocks up to n processes sleeping on q and returns how many
// it woke. It is exported for simulation drivers (e.g. the central
// server model) that act outside any process body.
func (k *Kernel) WakeQueue(q *WaitQueue, n int) int {
	woken := 0
	for woken < n {
		p := q.pop()
		if p == nil {
			break
		}
		p.sleepQ = nil
		k.setState(p, Runnable)
		// The Sleep request is satisfied; the body resumes past it at
		// the next dispatch.
		p.pendingDone = true
		k.pol.Enqueue(p)
		woken++
	}
	if woken > 0 {
		k.kickIdle()
	}
	return woken
}

// quantumExpire fires at the end of p's time slice. The event is
// canceled by unrun whenever the process is descheduled first (preempt,
// block, kill, exit), so — unlike the epoch-guard scheme it replaces —
// a stale expiry can never fire and no dead events sit in the queue.
func (k *Kernel) quantumExpire(p *Process) {
	p.quantumEv = sim.EventID{}
	if ext := k.pol.OnQuantumExpire(p); ext > 0 {
		now := k.eng.Now()
		p.quantumEnd = now.Add(ext)
		p.quantumEv = k.eng.Schedule(p.quantumEnd, p.quantumFn)
		if p.computing {
			// Fold progress into the pending compute and reschedule:
			// its completion may fit in the extended slice.
			ran := now.Sub(p.computeStart)
			p.computeLeft -= ran
			if p.computeLeft < 0 {
				p.computeLeft = 0
			}
			k.startComputeLeg(p)
		}
		return
	}
	k.Preempt(p)
}

// Preempt involuntarily deschedules a running process and requeues it.
// Policies use it to implement gang or partition rescheduling.
func (k *Kernel) Preempt(p *Process) {
	if p.state != Running {
		return
	}
	now := k.eng.Now()
	if p.computing {
		ran := now.Sub(p.computeStart)
		p.computeLeft -= ran
		if p.computeLeft < 0 {
			p.computeLeft = 0
		}
		p.computing = false
	}
	if p.waitingLock != nil && p.active {
		p.Stats.SpinTime += now.Sub(p.spinStart)
	}
	p.Stats.Preemptions++
	if len(p.held) > 0 {
		k.met.preemptCrit.Inc()
	}
	k.unrun(p, Runnable)
}

// unrun takes a Running process off its CPU, transitions it to next, and
// refills the CPU. It cancels every event tied to the dispatch being
// ended — quantum expiry, overhead completion, compute completion, lock
// grant continuation — so the engine's queue holds no stale work.
func (k *Kernel) unrun(p *Process, next ProcState) {
	now := k.eng.Now()
	cpu := p.cpu
	ran := now.Sub(p.runStart)
	p.Stats.CPUTime += ran
	p.usage += float64(ran)
	cpu.hw.BusyTime += ran
	p.epoch++
	k.eng.Cancel(p.quantumEv)
	k.eng.Cancel(p.startEv)
	k.eng.Cancel(p.computeEv)
	k.eng.Cancel(p.grantEv)
	p.quantumEv = sim.EventID{}
	p.startEv = sim.EventID{}
	p.computeEv = sim.EventID{}
	p.grantEv = sim.EventID{}
	p.computing = false
	p.active = false
	cpu.running = nil
	p.cpu = nil
	k.setState(p, next)
	if next == Runnable {
		k.pol.Enqueue(p)
	}
	k.dispatch(cpu)
}

// exit terminates p.
func (k *Kernel) exit(p *Process) {
	if len(p.held) != 0 {
		panic(fmt.Sprintf("kernel: %v exited holding %d lock(s)", p, len(p.held)))
	}
	if p.waitingLock != nil {
		p.Stats.SpinTime += k.eng.Now().Sub(p.spinStart)
		p.waitingLock.waiters.remove(p)
		p.waitingLock = nil
	}
	k.unrun(p, Exited)
	for i := range k.cpus {
		k.cpus[i].hw.Evict(p.footprint())
	}
	k.nlive--
	k.pol.OnExit(p)
	if k.OnExit != nil {
		k.OnExit(p)
	}
}

// Finalize closes the accounting books at the end of a run: credits
// the legs still running so CPU utilization sums are exact. Call it
// once after the engine returns.
func (k *Kernel) Finalize() {
	now := k.eng.Now()
	for i := range k.cpus {
		c := &k.cpus[i]
		if p := c.running; p != nil {
			ran := now.Sub(p.runStart)
			p.Stats.CPUTime += ran
			c.hw.BusyTime += ran
			p.runStart = now
		}
	}
}

// RunningOn returns the process currently on processor i, or nil.
func (k *Kernel) RunningOn(i int) *Process { return k.cpus[i].running }

// CountByApp tallies each application's runnable processes — Runnable
// and Running both count, matching the paper's "runnable processes".
// It appends one count per AppID, from AppNone (the uncontrollable
// processes) up to the largest AppID spawned so far, to dst and returns
// the extended slice: the caller owns the buffer, so a scan that reuses
// one allocates nothing.
func (k *Kernel) CountByApp(dst []int) []int {
	n := len(dst)
	dst = slices.Grow(dst, int(k.apps)+1)[:n+int(k.apps)+1]
	counts := dst[n:]
	clear(counts)
	for _, p := range k.procs {
		if p.state != Runnable && p.state != Running {
			continue
		}
		if p.killed {
			continue // a crashed queue husk is not runnable work
		}
		counts[p.app]++
	}
	return dst
}
