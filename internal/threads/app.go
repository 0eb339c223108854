package threads

import (
	"fmt"
	"slices"

	"procctl/internal/kernel"
	"procctl/internal/metrics"
	"procctl/internal/sim"
)

// Controller is the threads runtime's view of the central server. The
// simulated server (internal/ctrl) implements it; a nil Controller in
// Config reproduces the *unmodified* threads package, with no process
// control.
type Controller interface {
	// Register announces a new controllable application and how many
	// processes it was started with (the paper's root-process message).
	Register(id kernel.AppID, procs int)
	// Unregister announces the application finished.
	Unregister(id kernel.AppID)
	// Poll returns the number of runnable processes the application
	// should currently have. Applications call it at most once per
	// PollInterval.
	Poll(id kernel.AppID) int
}

// Config tunes the threads runtime for one application instance.
type Config struct {
	// Procs is the number of kernel processes to create (the
	// user-specified process count in the paper's experiments).
	Procs int
	// Controller enables process control; nil reproduces the original
	// unmodified package.
	Controller Controller
	// PollInterval is how often the application asks the server for its
	// target (the paper uses 6 s; default 6 s).
	PollInterval sim.Duration
	// OnTaskDone, if set, is called (inside the queue lock, at the
	// task's retirement instant) for every completed task — tracing and
	// tests use it to observe execution order.
	OnTaskDone func(TaskID)
	// RecordLatency makes the runtime keep per-task timing (ready,
	// start, done instants) for LatencyStats.
	RecordLatency bool
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 6 * sim.Second
	}
	return c
}

// The runtime's fixed costs, which newApp copies into every App.
const (
	// workingSet is each process's cache footprint in bytes: 256 KiB, a
	// full Multimax cache, so multiplexing several processes on one CPU
	// evicts each other's sets completely.
	workingSet = 256 << 10
	// dequeueCost is the CPU time spent inside the queue lock to take a
	// task.
	dequeueCost = 150 * sim.Microsecond
	// emptyCheckCost is the CPU time spent inside the queue lock to
	// discover the queue is empty — a couple of loads, far cheaper than
	// dequeueing.
	emptyCheckCost = 5 * sim.Microsecond
	// completeCost is the CPU time spent inside the queue lock to retire
	// a task and release its dependents.
	completeCost = 150 * sim.Microsecond
	// idleSpin is how long a worker with no ready task busy-waits before
	// rechecking the queue. Idle workers burn CPU, as the Brown
	// package's busy-waiting workers do.
	idleSpin = 500 * sim.Microsecond
)

// App is one running application instance: a workload being executed by
// a set of kernel processes under the (optionally control-enabled)
// threads runtime.
type App struct {
	id   kernel.AppID
	name string
	wl   *Workload
	k    *kernel.Kernel
	cfg  Config

	// The runtime's costs: the constants above, except in the
	// differential test, which varies them per case.
	workingSet                                          int64
	dequeueCost, emptyCheckCost, completeCost, idleSpin sim.Duration

	qlock *kernel.SpinLock   // guards ready/depsLeft/remaining
	locks []*kernel.SpinLock // application locks, by LockID
	// The ready queue, at launch an array of exactly the root tasks.
	ready kernel.FIFO[TaskID]
	// depsLeft counts unresolved inbound *spans* per task (inline edges
	// plus one per barrier group); groupsLeft counts unfinished
	// near-side tasks per barrier group. Equivalent to per-edge
	// counting, but a completion does O(spans) work instead of
	// O(edges) — see Workload.Barrier.
	depsLeft   []int32
	groupsLeft []int32
	remain     int

	suspendQ *kernel.WaitQueue
	target   int // desired runnable processes, from the last poll
	runnable int // workers not suspended (and not pending-wake)
	lastPoll sim.Time
	polled   bool

	started  sim.Time
	finished sim.Time
	done     bool

	// Per-task timing, kept when cfg.RecordLatency is set.
	readyAt []sim.Time
	startAt []sim.Time
	doneAt  []sim.Time

	met appMetrics
}

// appMetrics is the application's slice of the simulation's registry,
// labeled app=<workload name>. Two launches of the same workload name
// share series (registration is idempotent), which matches how the
// figures aggregate repeated runs.
type appMetrics struct {
	tasks       *metrics.Counter
	service     *metrics.Histogram
	suspended   *metrics.Histogram
	suspensions *metrics.Counter
	resumes     *metrics.Counter
	polls       *metrics.Counter
	idleSpins   *metrics.Counter
}

func newAppMetrics(reg *metrics.Registry, app string) appMetrics {
	return appMetrics{
		tasks:       reg.Counter(metrics.Name("sim_app_tasks_total", "app", app), "tasks retired by the threads runtime"),
		service:     reg.Histogram(metrics.Name("sim_app_task_service_micros", "app", app), "per-task execution time (compute + critical sections)", nil),
		suspended:   reg.Histogram(metrics.Name("sim_app_suspended_micros", "app", app), "safe-point suspension latency: suspend to running again", nil),
		suspensions: reg.Counter(metrics.Name("sim_app_suspensions_total", "app", app), "workers suspended by process control"),
		resumes:     reg.Counter(metrics.Name("sim_app_resumes_total", "app", app), "workers resumed by process control"),
		polls:       reg.Counter(metrics.Name("sim_app_polls_total", "app", app), "server polls issued"),
		idleSpins:   reg.Counter(metrics.Name("sim_app_idle_spins_total", "app", app), "empty-queue busy-wait episodes"),
	}
}

// Launch starts the workload on k as application id with cfg.Procs
// processes. It registers with the controller (if any) and returns
// immediately; the application runs as the simulation advances.
func Launch(k *kernel.Kernel, id kernel.AppID, wl *Workload, cfg Config) *App {
	a := newApp(k, id, wl, cfg)
	a.spawnWorkers()
	return a
}

// spawnWorkers creates the application's processes, each running the
// scheduler loop (workerState.step).
func (a *App) spawnWorkers() {
	workers := make([]workerState, a.cfg.Procs)
	for i := range workers {
		workers[i].a = a
		a.k.SpawnMember(a.name, workerSep, i, a.id, a.workingSet, workers[i].step)
	}
}

// newApp builds the application's runtime state and registers it with
// the controller (if any); Launch then spawns the workers.
func newApp(k *kernel.Kernel, id kernel.AppID, wl *Workload, cfg Config) *App {
	if id == kernel.AppNone {
		panic("threads: Launch requires a non-zero AppID")
	}
	if err := wl.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	a := &App{
		id:             id,
		name:           wl.Name,
		wl:             wl,
		k:              k,
		cfg:            cfg,
		workingSet:     workingSet,
		dequeueCost:    dequeueCost,
		emptyCheckCost: emptyCheckCost,
		completeCost:   completeCost,
		idleSpin:       idleSpin,
		qlock:          k.NewSpinLock(wl.Name + "/queue"),
		suspendQ:       kernel.NewWaitQueue(fmt.Sprintf("%s/suspend", wl.Name)),
		depsLeft:       make([]int32, wl.Len()),
		remain:         wl.Len(),
		target:         cfg.Procs,
		runnable:       cfg.Procs,
		started:        k.Now(),
		lastPoll:       k.Now(),
	}
	for i := 0; i < wl.NumLocks(); i++ {
		a.locks = append(a.locks, k.NewSpinLock(fmt.Sprintf("%s/lock%d", wl.Name, i)))
	}
	if cfg.RecordLatency {
		a.readyAt = make([]sim.Time, wl.Len())
		a.startAt = make([]sim.Time, wl.Len())
		a.doneAt = make([]sim.Time, wl.Len())
	}
	a.met = newAppMetrics(k.Metrics(), wl.Name)
	k.Metrics().OnCollect(func() {
		reg := k.Metrics()
		reg.Gauge(metrics.Name("sim_app_queue_depth", "app", wl.Name), "ready tasks queued").Set(int64(a.ready.Len()))
		reg.Gauge(metrics.Name("sim_app_runnable", "app", wl.Name), "workers not suspended by process control").Set(int64(a.runnable))
		reg.Gauge(metrics.Name("sim_app_target", "app", wl.Name), "most recently polled server target").Set(int64(a.target))
	})
	a.groupsLeft = slices.Clone(wl.groupFrom)
	a.ready.Reserve(wl.roots)
	for i := range wl.tasks {
		a.depsLeft[i] = wl.tasks[i].nspans
		if a.depsLeft[i] == 0 {
			a.ready.Push(TaskID(i))
			if cfg.RecordLatency {
				a.readyAt[i] = a.started
			}
		}
	}
	if cfg.Controller != nil {
		cfg.Controller.Register(id, cfg.Procs)
	}
	return a
}

// workerSep joins an application's name and a worker's index into the
// worker process's name: fft/w0, fft/w1, …
const workerSep = "/w"

// Name returns the workload name.
func (a *App) Name() string { return a.name }

// Done reports whether every task has finished.
func (a *App) Done() bool { return a.done }

// Elapsed returns the wall-clock (virtual) time from launch to the last
// task's completion; it panics if the application has not finished.
func (a *App) Elapsed() sim.Duration {
	if !a.done {
		panic(fmt.Sprintf("threads: %s has not finished", a.name))
	}
	return a.finished.Sub(a.started)
}

// Runnable returns the number of workers currently not suspended by
// process control.
func (a *App) Runnable() int { return a.runnable }

// Target returns the most recently polled server target.
func (a *App) Target() int { return a.target }

// workerPC names the points at which a worker can be waiting for virtual
// time to pass — the only places the scheduler loop ever stops.
type workerPC uint8

const (
	pcTop        workerPC = iota // between tasks, holding nothing: the safe suspension point
	pcResumed                    // woken from the suspend queue
	pcDequeue                    // holding qlock: take a task
	pcDequeued                   // the dequeue (or the empty check) has been paid for
	pcTaskLock                   // a locked task's first half is done: take its lock
	pcTaskLocked                 // holding the task's lock: the critical section
	pcTaskUnlock                 // the critical section is done: release, second half
	pcTaskDone                   // the task's last compute leg is done
	pcComplete                   // holding qlock: pay for the retirement
	pcCompleted                  // retire the task, ready its dependents
)

// workerState is one process's place in the threads runtime's scheduler
// loop. Its step method is the process body (kernel.SpawnResumable): the
// loop is cut at its blocking requests, pc says at which one, and the
// other fields are the locals that live across it.
type workerState struct {
	a     *App
	pc    workerPC
	task  TaskID   // pcDequeued: -1 if the queue was empty; then the task in hand
	since sim.Time // pcResumed: when the worker suspended; pcTask*: when the task started
}

// step runs the scheduler loop from where the last request left it to
// the next request that takes virtual time. Where it wants a lock it
// sets pc to the state that holds it first: a free lock is taken on the
// spot and the loop goes on, a held one is the request.
func (w *workerState) step(env *kernel.Env) kernel.Request {
	a := w.a
	for {
		switch w.pc {
		case pcTop:
			if a.done {
				return kernel.Exit()
			}
			if a.controlPoint(env) {
				w.pc, w.since = pcResumed, env.Now()
				return kernel.Sleep(a.suspendQ)
			}
			w.pc = pcDequeue
			if !env.TryAcquire(a.qlock) {
				return kernel.Acquire(a.qlock)
			}

		case pcResumed:
			// Woken: either resumed by a peer (already counted in runnable
			// by the waker) or the application finished. The observed span
			// runs to the redispatch instant, so it includes the requeue
			// latency of the resume — the paper's suspend/resume cost.
			span := env.Now().Sub(w.since)
			a.met.suspended.Observe(int64(span))
			a.annotate(env, "resume", -1, a.target, span)
			if a.done {
				return kernel.Exit()
			}
			w.pc = pcDequeue
			if !env.TryAcquire(a.qlock) {
				return kernel.Acquire(a.qlock)
			}

		case pcDequeue:
			w.task = a.dequeue()
			w.pc = pcDequeued
			if w.task < 0 {
				return kernel.Compute(a.emptyCheckCost)
			}
			return kernel.Compute(a.dequeueCost)

		case pcDequeued:
			if w.task >= 0 && a.readyAt != nil {
				a.startAt[w.task] = env.Now()
			}
			env.Release(a.qlock)
			if w.task < 0 {
				if a.remain == 0 {
					return kernel.Exit()
				}
				// Nothing ready (a dependency is still executing): spin a
				// little and recheck, burning CPU like the paper's idle
				// busy-waiting workers.
				a.met.idleSpins.Inc()
				a.annotate(env, "barrier_wait", -1, -1, a.idleSpin)
				w.pc = pcTop
				return kernel.Compute(a.idleSpin)
			}
			w.since = env.Now()
			a.annotate(env, "task_start", int(w.task), -1, 0)
			t := a.wl.Task(w.task)
			if t.Lock == NoLock || t.LockWork <= 0 {
				w.pc = pcTaskDone
				return kernel.Compute(t.Work)
			}
			// Split the non-critical work around the critical section so
			// the lock is held mid-task, as real code would.
			w.pc = pcTaskLock
			return kernel.Compute((t.Work - t.LockWork) / 2)

		case pcTaskLock:
			w.pc = pcTaskLocked
			if l := a.locks[a.wl.Task(w.task).Lock]; !env.TryAcquire(l) {
				return kernel.Acquire(l)
			}

		case pcTaskLocked:
			w.pc = pcTaskUnlock
			return kernel.Compute(a.wl.Task(w.task).LockWork)

		case pcTaskUnlock:
			t := a.wl.Task(w.task)
			env.Release(a.locks[t.Lock])
			outside := t.Work - t.LockWork
			w.pc = pcTaskDone
			return kernel.Compute(outside - outside/2)

		case pcTaskDone:
			service := env.Now().Sub(w.since)
			a.met.service.Observe(int64(service))
			a.annotate(env, "task_done", int(w.task), -1, service)
			w.pc = pcComplete
			if !env.TryAcquire(a.qlock) {
				return kernel.Acquire(a.qlock)
			}

		case pcComplete:
			w.pc = pcCompleted
			return kernel.Compute(a.completeCost)

		case pcCompleted:
			finished := a.complete(w.task)
			if a.readyAt != nil {
				a.doneAt[w.task] = env.Now()
			}
			if a.cfg.OnTaskDone != nil {
				a.cfg.OnTaskDone(w.task)
			}
			env.Release(a.qlock)
			a.met.tasks.Inc()
			if finished {
				a.finish(env)
				return kernel.Exit()
			}
			w.pc = pcTop
		}
	}
}

// dequeue pops the next ready task, or -1. Callers hold qlock.
func (a *App) dequeue() TaskID {
	if a.ready.Len() == 0 {
		return -1
	}
	return a.ready.Pop()
}

// complete retires a task and readies its dependents; it reports whether
// the workload just finished. Callers hold qlock.
func (a *App) complete(id TaskID) bool {
	wl := a.wl
	for i := wl.tasks[id].head; i >= 0; i = wl.spans[i].next {
		sp := wl.spans[i]
		if sp.group < 0 {
			a.readyDep(sp.edge)
			continue
		}
		a.groupsLeft[sp.group]--
		if a.groupsLeft[sp.group] == 0 {
			// The barrier's last near-side task just finished: the
			// group span resolves for every far-side task, in declared
			// order — the same instant and order at which per-edge
			// counting would have readied them.
			for _, s := range wl.groups[sp.group] {
				a.readyDep(s)
			}
		}
	}
	a.remain--
	return a.remain == 0
}

// readyDep retires one inbound dependency of s, enqueueing it when the
// last one clears. Callers hold qlock.
func (a *App) readyDep(s TaskID) {
	a.depsLeft[s]--
	if a.depsLeft[s] == 0 {
		a.ready.Push(s)
		if a.readyAt != nil {
			a.readyAt[s] = a.k.Now()
		}
	}
}

// finish records completion, releases suspended peers so they can exit,
// and unregisters from the controller.
func (a *App) finish(env *kernel.Env) {
	a.done = true
	a.finished = env.Now()
	if n := a.suspendQ.Len(); n > 0 {
		env.Wake(a.suspendQ, n)
	}
	if a.cfg.Controller != nil {
		a.cfg.Controller.Unregister(a.id)
	}
}

// controlPoint is the process-control hook: poll the server when the
// interval has elapsed, then suspend or resume to track the target. It
// reports whether the calling worker must now suspend itself (sleep on
// suspendQ). The unmodified package (nil controller) does nothing here,
// so the added overhead in the controlled-but-unloaded case is a couple
// of integer compares — the paper's "overhead of our implementation is
// negligible".
func (a *App) controlPoint(env *kernel.Env) (suspend bool) {
	if a.cfg.Controller == nil {
		return false
	}
	now := env.Now()
	if !a.polled || now.Sub(a.lastPoll) >= a.cfg.PollInterval {
		a.polled = true
		a.lastPoll = now
		a.target = a.cfg.Controller.Poll(a.id)
		a.met.polls.Inc()
		a.annotate(env, "poll", -1, a.target, 0)
	}
	if a.target < a.runnable && a.runnable > 1 {
		a.runnable--
		a.met.suspensions.Inc()
		a.annotate(env, "suspend", -1, a.target, 0)
		return true
	}
	for a.target > a.runnable && a.suspendQ.Len() > 0 {
		a.runnable++
		a.met.resumes.Inc()
		env.Wake(a.suspendQ, 1)
	}
	return false
}

// annotate stamps a threads-layer event into the kernel's trace stream.
// It is free when no trace hook is installed.
func (a *App) annotate(env *kernel.Env, kind string, task, target int, d sim.Duration) {
	a.k.Annotate(kernel.Annotation{
		Layer:  "threads",
		Kind:   kind,
		PID:    env.Proc().ID(),
		App:    a.id,
		Task:   task,
		Target: target,
		Dur:    d,
	})
}

// LatencyStats summarizes per-task timing from a RecordLatency run:
// Wait is each task's time from becoming ready to being dequeued (the
// queueing delay the paper's FIFO discussion is about), Span its time
// from ready to retirement. It panics if latency recording was off.
func (a *App) LatencyStats() (wait, span []sim.Duration) {
	if a.readyAt == nil {
		panic("threads: LatencyStats requires Config.RecordLatency")
	}
	for i := range a.readyAt {
		if a.doneAt[i] == 0 {
			continue // unfinished (horizon hit)
		}
		wait = append(wait, a.startAt[i].Sub(a.readyAt[i]))
		span = append(span, a.doneAt[i].Sub(a.readyAt[i]))
	}
	return wait, span
}
