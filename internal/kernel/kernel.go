package kernel

import (
	"fmt"

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
	hw        *machine.CPU
	running   *Process
	idle      bool
	idleSince sim.Time
	idleTime  sim.Duration
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
	cpus []*cpuState

	procs  []*Process // every process ever spawned, in spawn order
	byID   map[PID]*Process
	nextID PID
	nlive  int

	rng *sim.RNG
	met *kernelMetrics

	// rendezvous counts engine→body→engine hand-offs (calls to advance).
	// Tests read it; it is deliberately not a metrics series, so the
	// snapshot goldens do not depend on how requests are delivered.
	rendezvous uint64

	// Optional hooks for tracing. Invoked synchronously at the instant of
	// the event, on whichever goroutine of the simulation is running —
	// the engine's, or a function body's coroutine for the requests that
	// body performs itself (OnLockAcquire, OnLockRelease, and the state
	// changes and dispatches a Wake causes). A hook must not call Kill,
	// Stall or Preempt.
	// Installers that replace a hook must chain the previous value.
	OnSpawn       func(*Process)
	OnExit        func(*Process)
	OnStateChange func(p *Process, old, new ProcState)
	// OnDispatch fires after a process is placed on a CPU (its state is
	// already Running); wait is the ready-queue latency the dispatch just
	// ended.
	OnDispatch func(p *Process, cpu int, wait sim.Duration)
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
		byID: make(map[PID]*Process),
		rng:  eng.RNG().Split(),
		met:  newKernelMetrics(metrics.NewRegistry()),
	}
	for _, c := range mac.CPUs() {
		k.cpus = append(k.cpus, &cpuState{hw: c, idle: true})
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

// Lookup returns the process with the given PID, or nil.
func (k *Kernel) Lookup(id PID) *Process { return k.byID[id] }

// SpawnResumable creates a runnable process belonging to app, with the
// given cache working-set size in bytes, whose body is resume: each time
// the process's last blocking request has been satisfied — the first
// time, when it first runs — the engine calls resume and the process
// carries out the Request it returns; Exit() ends it. Between two
// requests resume may take a free lock (Env.TryAcquire), Release, Wake
// and read the Env; it must not call the Env's blocking methods. It runs
// on the engine's goroutine and owns no stack between calls, so Kill and
// Shutdown have nothing to unwind: they just never resume it again.
func (k *Kernel) SpawnResumable(name string, app AppID, workingSet int64, resume func(*Env) Request) *Process {
	k.nextID++
	p := &Process{
		id:         k.nextID,
		name:       name,
		app:        app,
		workingSet: workingSet,
		lastCPU:    -1,
		state:      Embryo,
	}
	e := &p.env
	e.p, e.k, e.rng, e.resume = p, k, k.rng.Split(), resume
	// One closure per event kind for the process's whole lifetime; the
	// dispatch hot path then schedules them with zero allocations.
	p.quantumFn = func() { k.quantumExpire(p) }
	p.startFn = func() { k.beginRun(p) }
	p.computeFn = func() { k.computeDone(p) }
	k.procs = append(k.procs, p)
	k.byID[p.id] = p
	k.nlive++
	k.setState(p, Runnable)
	k.pol.Enqueue(p)
	if k.OnSpawn != nil {
		k.OnSpawn(p)
	}
	k.kickIdle()
	return p
}

// Spawn creates a process like SpawnResumable whose body is an ordinary
// Go function making its blocking requests through the Env's methods. It
// is for general bodies and tests; hot bodies use SpawnResumable. The
// function runs as a coroutine in strict alternation with the engine —
// an adapter whose resume switches to it until it parks in its next
// request — so each blocking request costs two coroutine switches, and
// Kill and Shutdown unwind it.
func (k *Kernel) Spawn(name string, app AppID, workingSet int64, body func(*Env)) *Process {
	var e *Env
	next, stop := newCoroutine(func(yield func(Request) bool) {
		defer func() { // a kill is a plain return; any other panic goes on to next's caller
			if r := recover(); r != nil && r != any(killedError{}) {
				panic(r)
			}
		}()
		e.yield = yield
		body(e)
	})
	p := k.SpawnResumable(name, app, workingSet, func(*Env) Request {
		r, ok := next()
		if !ok {
			return Exit() // the function returned
		}
		return r
	})
	e = &p.env // the body first runs from an engine event, after this
	e.stop = stop
	return p
}

// Shutdown unwinds the function bodies of all still-live processes, one
// after the other (Env.unwind; a resumable body has nothing to unwind).
// Call it after the engine has returned from Run; it must not be called
// from an event callback.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		p.env.unwind()
	}
}

// advance resumes p's body until its next blocking request and
// initializes the request's progress state. This is the rendezvous: the
// only place the engine hands control to a body and waits for it. A
// Compute or SleepFor of no duration is satisfied on the spot — the body
// is resumed again, nothing else having happened — which is the one
// place that rule lives. Requests that take no virtual time never get
// here: the body performs them itself (Env.TryAcquire, Env.Release,
// Env.Wake).
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
	for _, c := range k.cpus {
		if c.running == nil {
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
		if !cpu.idle {
			cpu.idle = true
			cpu.idleSince = now
		}
		return
	}
	if p.state != Runnable {
		panic(fmt.Sprintf("kernel: policy %s picked %v", k.pol.Name(), p))
	}
	if cpu.idle {
		cpu.idleTime += now.Sub(cpu.idleSince)
		cpu.idle = false
	}
	k.met.dispatches.Inc()
	wait := now.Sub(p.readySince)
	k.met.runqWait.Observe(int64(wait))
	if p.lastCPU >= 0 && p.lastCPU != cpu.hw.ID() {
		k.met.migrations.Inc()
	}
	if cpu.hw.LastFootprint() != p.footprint() {
		k.met.ctxSwitches.Inc()
	}
	cpu.running = p
	p.cpu = cpu
	p.lastCPU = cpu.hw.ID()
	p.runStart = now
	k.setState(p, Running) // after CPU assignment, so hooks see where
	p.Stats.Dispatches++
	if k.OnDispatch != nil {
		k.OnDispatch(p, cpu.hw.ID(), wait)
	}

	sw, rl := cpu.hw.Dispatch(p.footprint(), p.workingSet)
	p.Stats.SwitchTime += sw
	p.Stats.ReloadTime += rl
	k.met.switchMicros.Add(int64(sw))
	k.met.reloadMicros.Add(int64(rl))
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
					l.addWaiter(p)
					l.Contended++
					p.Stats.LockSpins++
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
// one definition of "acquire": runProc, Env.Acquire and grantLock all
// end here.
func (k *Kernel) takeLock(l *SpinLock, p *Process, spun sim.Duration) {
	l.removeWaiter(p)
	l.holder = p
	l.lockedAt = k.eng.Now()
	l.Acquires++
	p.lockDepth++
	p.held = append(p.held, l)
	p.Stats.LockAcquires++
	p.waitingLock = nil
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
	p.lockDepth--
	for i := len(p.held) - 1; i >= 0; i-- {
		if p.held[i] == l {
			p.held = append(p.held[:i], p.held[i+1:]...)
			break
		}
	}
	l.holder = nil
	if forced {
		l.ForcedReleases++
		k.met.forcedReleases.Inc()
	}
	if k.OnLockRelease != nil {
		k.OnLockRelease(p, l, held, forced)
	}
	if w := l.firstRunningWaiter(); w != nil {
		k.grantLock(l, w)
	}
}

// grantLock hands l to running waiter w and schedules w's continuation.
func (k *Kernel) grantLock(l *SpinLock, w *Process) {
	now := k.eng.Now()
	spun := now.Sub(w.spinStart)
	w.Stats.SpinTime += spun
	k.met.spinMicros.Add(int64(spun))
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
		k.met.spinMicros.Add(int64(now.Sub(p.spinStart)))
	}
	p.Stats.Preemptions++
	k.met.preemptions.Inc()
	if p.lockDepth > 0 {
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
	k.met.cpuMicros.Add(int64(ran))
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
	if p.lockDepth != 0 {
		panic(fmt.Sprintf("kernel: %v exited holding %d lock(s)", p, p.lockDepth))
	}
	if p.waitingLock != nil {
		p.Stats.SpinTime += k.eng.Now().Sub(p.spinStart)
		k.met.spinMicros.Add(int64(k.eng.Now().Sub(p.spinStart)))
		p.waitingLock.removeWaiter(p)
		p.waitingLock = nil
	}
	k.unrun(p, Exited)
	for _, c := range k.cpus {
		c.hw.Evict(p.footprint())
	}
	k.nlive--
	k.pol.OnExit(p)
	if k.OnExit != nil {
		k.OnExit(p)
	}
}

// Finalize closes the accounting books at the end of a run: credits
// trailing busy/idle periods so CPU utilization sums are exact. Call it
// once after the engine returns.
func (k *Kernel) Finalize() {
	now := k.eng.Now()
	for _, c := range k.cpus {
		if c.running != nil {
			p := c.running
			ran := now.Sub(p.runStart)
			p.Stats.CPUTime += ran
			k.met.cpuMicros.Add(int64(ran))
			c.hw.BusyTime += ran
			p.runStart = now
		} else if c.idle {
			c.idleTime += now.Sub(c.idleSince)
			c.idleSince = now
		}
	}
}

// CPUIdleTime returns the accumulated idle time of processor i (valid
// after Finalize).
func (k *Kernel) CPUIdleTime(i int) sim.Duration { return k.cpus[i].idleTime }

// RunningOn returns the process currently on processor i, or nil.
func (k *Kernel) RunningOn(i int) *Process { return k.cpus[i].running }

// CountByApp tallies each application's runnable processes — Runnable
// and Running both count, matching the paper's "runnable processes" —
// and, separately, the uncontrollable (AppNone) ones.
func (k *Kernel) CountByApp() (perApp map[AppID]int, uncontrolled int) {
	perApp = make(map[AppID]int)
	for _, p := range k.procs {
		if p.state != Runnable && p.state != Running {
			continue
		}
		if p.killed {
			continue // a crashed queue husk is not runnable work
		}
		if p.app == AppNone {
			uncontrolled++
		} else {
			perApp[p.app]++
		}
	}
	return perApp, uncontrolled
}
