package threads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"strings"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

// The threads runtime's scheduler loop as it was written before it
// became workerState.step: one straight-line Go function per process,
// blocking in its environment's methods. It is kept here, unchanged but
// for the names, as the oracle the state machine is tested against: the
// function is the obviously-right spelling of the loop, the state
// machine the fast one. The kernel runs only resumable bodies, so
// spawnBlocking adapts the function to one.

// blockingEnv is a process's Env plus the blocking methods the
// reference calls: each hands its request to the engine and waits until
// the engine has satisfied it.
type blockingEnv struct {
	*kernel.Env
	req    chan kernel.Request // body → engine: the next blocking request
	resume chan struct{}       // engine → body: the last one is satisfied
}

func (e *blockingEnv) do(r kernel.Request) {
	e.req <- r
	<-e.resume
}

func (e *blockingEnv) Compute(d sim.Duration)    { e.do(kernel.Compute(d)) }
func (e *blockingEnv) Sleep(q *kernel.WaitQueue) { e.do(kernel.Sleep(q)) }

// Acquire takes a free lock at once and spins through the engine only
// on a held one, as a resumable body does.
func (e *blockingEnv) Acquire(l *kernel.SpinLock) {
	if !e.TryAcquire(l) {
		e.do(kernel.Acquire(l))
	}
}

// spawnBlocking spawns a process whose body is the straight-line
// function body. The body runs on a goroutine of its own, started at the
// process's first resume; every later resume hands control to it and
// waits for its next request over unbuffered channels, so exactly one of
// {the engine, the body} runs at any moment and the two are ordered as
// a channel hand-off orders them. It is the only place in the repository
// a body runs off the engine's goroutine, and it is for this oracle only.
// The goroutine ends when the body returns: every case runs its
// application to completion, and that returns every worker.
func spawnBlocking(k *kernel.Kernel, name string, app kernel.AppID, workingSet int64, body func(*blockingEnv)) *kernel.Process {
	e := &blockingEnv{req: make(chan kernel.Request), resume: make(chan struct{})}
	return k.SpawnResumable(name, app, workingSet, func(env *kernel.Env) kernel.Request {
		if e.Env == nil {
			e.Env = env
			go func() {
				body(e)
				e.req <- kernel.Exit()
			}()
		} else {
			e.resume <- struct{}{}
		}
		return <-e.req
	})
}

// referenceWorker is the per-process body: the threads runtime's scheduler loop.
func (a *App) referenceWorker(env *blockingEnv) {
	for {
		if a.done {
			return
		}
		// Safe suspension point: between tasks, holding nothing.
		a.referenceControlPoint(env)
		if a.done {
			return
		}

		env.Acquire(a.qlock)
		t := a.dequeue()
		if t < 0 {
			env.Compute(a.emptyCheckCost)
		} else {
			env.Compute(a.dequeueCost)
			if a.readyAt != nil {
				a.startAt[t] = env.Now()
			}
		}
		env.Release(a.qlock)

		if t < 0 {
			if a.remain == 0 {
				return
			}
			// Nothing ready (a dependency is still executing): spin a
			// little and recheck, burning CPU like the paper's idle
			// busy-waiting workers.
			a.met.idleSpins.Inc()
			a.annotate(env.Env, "barrier_wait", -1, -1, a.idleSpin)
			env.Compute(a.idleSpin)
			continue
		}

		serviceStart := env.Now()
		a.annotate(env.Env, "task_start", int(t), -1, 0)
		a.referenceExecute(env, t)
		service := env.Now().Sub(serviceStart)
		a.met.service.Observe(int64(service))
		a.annotate(env.Env, "task_done", int(t), -1, service)

		env.Acquire(a.qlock)
		env.Compute(a.completeCost)
		finished := a.complete(t)
		if a.readyAt != nil {
			a.doneAt[t] = env.Now()
		}
		if a.cfg.OnTaskDone != nil {
			a.cfg.OnTaskDone(t)
		}
		env.Release(a.qlock)
		a.met.tasks.Inc()

		if finished {
			a.finish(env.Env)
			return
		}
	}
}

// referenceExecute runs one task's compute and critical-section legs.
func (a *App) referenceExecute(env *blockingEnv, id TaskID) {
	t := a.wl.Task(id)
	if t.Lock == NoLock || t.LockWork <= 0 {
		env.Compute(t.Work)
		return
	}
	outside := t.Work - t.LockWork
	// Split the non-critical work around the critical section so the
	// lock is held mid-task, as real code would.
	env.Compute(outside / 2)
	env.Acquire(a.locks[t.Lock])
	env.Compute(t.LockWork)
	env.Release(a.locks[t.Lock])
	env.Compute(outside - outside/2)
}

// referenceControlPoint is the process-control hook: poll the server when the
// interval has elapsed, then suspend or resume to track the target. The
// unmodified package (nil controller) does nothing here, so the added
// overhead in the controlled-but-unloaded case is a couple of integer
// compares — the paper's "overhead of our implementation is negligible".
func (a *App) referenceControlPoint(env *blockingEnv) {
	if a.cfg.Controller == nil {
		return
	}
	now := env.Now()
	if !a.polled || now.Sub(a.lastPoll) >= a.cfg.PollInterval {
		a.polled = true
		a.lastPoll = now
		a.target = a.cfg.Controller.Poll(a.id)
		a.met.polls.Inc()
		a.annotate(env.Env, "poll", -1, a.target, 0)
	}
	if a.target < a.runnable && a.runnable > 1 {
		a.runnable--
		a.met.suspensions.Inc()
		suspendedAt := now
		a.annotate(env.Env, "suspend", -1, a.target, 0)
		env.Sleep(a.suspendQ)
		// Woken: either resumed by a peer (already counted in runnable
		// by the waker) or the application finished. The observed span
		// runs to the redispatch instant, so it includes the requeue
		// latency of the resume — the paper's suspend/resume cost.
		span := env.Now().Sub(suspendedAt)
		a.met.suspended.Observe(int64(span))
		a.annotate(env.Env, "resume", -1, a.target, span)
		return
	}
	for a.target > a.runnable && a.suspendQ.Len() > 0 {
		a.runnable++
		a.met.resumes.Inc()
		env.Wake(a.suspendQ, 1)
	}
}

// scriptedController swings an application's target between low and
// high every period of virtual time, starting low: any application with
// more than low processes that lives for two periods suspends workers
// and then resumes them.
type scriptedController struct {
	k         *kernel.Kernel
	period    sim.Duration
	low, high int
}

func (c *scriptedController) Register(kernel.AppID, int) {}
func (c *scriptedController) Unregister(kernel.AppID)    {}
func (c *scriptedController) Poll(kernel.AppID) int {
	if (c.k.Now().Sub(0)/c.period)%2 == 0 {
		return c.low
	}
	return c.high
}

// workerCase is one seeded scenario of the differential test.
type workerCase struct {
	seed    uint64
	ncpu    int
	procs   int
	policy  int
	control bool
	// The four runtime costs; zero is a value here (the test writes
	// them into the App after newApp), so every zero-duration Compute of
	// the loop is exercised.
	dequeue, emptyCheck, complete, idleSpin sim.Duration
}

func (c workerCase) String() string {
	return fmt.Sprintf("seed=%d cpus=%d procs=%d policy=%d control=%v costs=%v/%v/%v/%v",
		c.seed, c.ncpu, c.procs, c.policy, c.control, c.dequeue, c.emptyCheck, c.complete, c.idleSpin)
}

func randomWorkerCase(seed uint64) workerCase {
	rng := sim.NewRNG(seed)
	cost := func(max sim.Duration) sim.Duration {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Duration(1, max)
	}
	c := workerCase{
		seed:       seed,
		ncpu:       1 + rng.Intn(16),
		procs:      1 + rng.Intn(24),
		policy:     rng.Intn(5),
		control:    rng.Intn(3) != 0,
		dequeue:    cost(300 * sim.Microsecond),
		emptyCheck: cost(20 * sim.Microsecond),
		complete:   cost(300 * sim.Microsecond),
		idleSpin:   cost(sim.Millisecond),
	}
	if c.emptyCheck == 0 && c.idleSpin == 0 {
		// An idle worker would recheck the queue forever at one instant,
		// in either form of the loop.
		c.idleSpin = 100 * sim.Microsecond
	}
	return c
}

// workload builds the case's DAG: a few layers joined by barriers or by
// random edges, tasks with and without critical sections — LockWork
// equal to Work (both outside legs are zero-duration computes), LockWork
// zero on a task that names a lock, zero Work — and now and then a
// single task.
func (c workerCase) workload() *Workload {
	rng := sim.NewRNG(c.seed ^ 0x9e3779b97f4a7c15)
	w := NewWorkload(fmt.Sprintf("case%d", c.seed))
	if rng.Intn(12) == 0 {
		w.AddLocked(rng.Duration(0, 3*sim.Millisecond), 0, 0)
		return w
	}
	layers := 1 + rng.Intn(5)
	var prev []TaskID
	for l := 0; l < layers; l++ {
		cur := make([]TaskID, 1+rng.Intn(12))
		for i := range cur {
			work := rng.Duration(0, 4*sim.Millisecond)
			switch rng.Intn(6) {
			case 0:
				cur[i] = w.AddLocked(work, LockID(rng.Intn(2)), work)
			case 1:
				cur[i] = w.AddLocked(work, LockID(rng.Intn(2)), work/sim.Duration(2+rng.Intn(6)))
			case 2:
				cur[i] = w.AddLocked(work, LockID(rng.Intn(2)), 0)
			default:
				cur[i] = w.Add(work)
			}
		}
		if rng.Intn(2) == 0 {
			w.Barrier(prev, cur)
		} else {
			for _, to := range cur {
				for _, from := range prev {
					if rng.Intn(3) == 0 {
						w.Dep(from, to)
					}
				}
			}
		}
		prev = cur
	}
	return w
}

// workerRun is everything observable about one run of a case.
type workerRun struct {
	Hooks     string // SHA-256 of the kernel hook stream, in order
	HookLines int
	Done      bool
	Finished  sim.Time
	Procs     []kernel.ProcStats
	// The app's suspension, resume and idle-spin series, which Metrics
	// holds too; the coverage check reads them.
	Suspensions, Resumes, IdleSpins int64
	Fired, Canceled                 uint64
	Wait, Span                      []sim.Duration
	Metrics                         string
}

// hookStream hashes one line per kernel hook invocation.
type hookStream struct {
	k     *kernel.Kernel
	h     hash.Hash
	lines int
}

func (s *hookStream) logf(format string, args ...any) {
	fmt.Fprintf(s.h, "%d ", s.k.Now())
	fmt.Fprintf(s.h, format, args...)
	s.h.Write([]byte{'\n'})
	s.lines++
}

func (s *hookStream) install() {
	k := s.k
	k.OnSpawn = func(p *kernel.Process) { s.logf("spawn %d %s", p.ID(), p.Name()) }
	k.OnExit = func(p *kernel.Process) { s.logf("exit %d", p.ID()) }
	k.OnStateChange = func(p *kernel.Process, old, next kernel.ProcState) { s.logf("state %d %v>%v", p.ID(), old, next) }
	k.OnDispatch = func(p *kernel.Process, cpu int, wait, _, _ sim.Duration) {
		s.logf("dispatch %d cpu%d wait=%d", p.ID(), cpu, wait)
	}
	k.OnLockContend = func(p *kernel.Process, l *kernel.SpinLock, holder *kernel.Process, first bool) {
		s.logf("contend %d %s holder=%d(%v) first=%v", p.ID(), l.Name(), holder.ID(), holder.State(), first)
	}
	k.OnLockAcquire = func(p *kernel.Process, l *kernel.SpinLock, spun sim.Duration) {
		s.logf("acquire %d %s spun=%d", p.ID(), l.Name(), spun)
	}
	k.OnLockRelease = func(p *kernel.Process, l *kernel.SpinLock, held sim.Duration, forced bool) {
		s.logf("release %d %s held=%d forced=%v", p.ID(), l.Name(), held, forced)
	}
	k.OnAnnotation = func(a kernel.Annotation) { s.logf("note %+v", a) }
}

// run executes the case with the state machine (Launch's own spawn loop)
// or with the reference function.
func (c workerCase) run(reference bool) workerRun {
	policies := []func() kernel.Policy{
		func() kernel.Policy { return kernel.NewTimeshare() },
		func() kernel.Policy { return kernel.NewCosched() },
		func() kernel.Policy { return kernel.NewSpinFlag() },
		func() kernel.Policy { return kernel.NewAffinity() },
		func() kernel.Policy { return kernel.NewPartition() },
	}
	eng := sim.NewEngine(c.seed)
	mac := machine.New(machine.Config{NumCPU: c.ncpu, ContextSwitch: 50, CacheSize: 64 << 10, ReloadRate: 64})
	k := kernel.New(eng, mac, policies[c.policy](), kernel.Config{Quantum: 3 * sim.Millisecond, QuantumJitter: sim.Millisecond})
	hooks := &hookStream{k: k, h: sha256.New()}
	hooks.install()

	cfg := Config{
		Procs:         c.procs,
		PollInterval:  2 * sim.Millisecond,
		RecordLatency: true,
		OnTaskDone:    func(id TaskID) { hooks.logf("taskdone %d", id) },
	}
	if c.control {
		cfg.Controller = &scriptedController{k: k, period: 5 * sim.Millisecond, low: 1 + c.procs/4, high: c.procs}
	}
	a := newApp(k, 1, c.workload(), cfg)
	a.workingSet = 48 << 10
	a.dequeueCost, a.emptyCheckCost, a.completeCost, a.idleSpin = c.dequeue, c.emptyCheck, c.complete, c.idleSpin
	if reference {
		for i := 0; i < a.cfg.Procs; i++ {
			spawnBlocking(k, fmt.Sprintf("%s%s%d", a.name, workerSep, i), a.id, a.workingSet, a.referenceWorker)
		}
	} else {
		a.spawnWorkers()
	}
	for !a.Done() && eng.Now() < sim.Time(60*sim.Second) {
		eng.Run(eng.Now().Add(sim.Second))
	}
	k.Finalize()

	r := workerRun{
		Hooks:     hex.EncodeToString(hooks.h.Sum(nil)),
		HookLines: hooks.lines,
		Done:      a.Done(),
		Finished:  a.finished,
		Fired:     eng.Fired(),
		Canceled:  eng.Canceled(),
	}
	r.Suspensions, r.Resumes, r.IdleSpins = a.met.suspensions.Value(), a.met.resumes.Value(), a.met.idleSpins.Value()
	for _, p := range k.Processes() {
		r.Procs = append(r.Procs, p.Stats)
	}
	r.Wait, r.Span = a.LatencyStats()
	var text strings.Builder
	k.MetricsSnapshot().WriteText(&text)
	r.Metrics = text.String()
	return r
}

// TestWorkerStateMachineMatchesReference is the differential test of
// workerState.step against the straight-line loop above: over seeded
// random workloads, runtime costs (zero included), process and CPU
// counts, policies and controllers, the two must drive the kernel
// through the same hook stream — every state change, dispatch, lock
// event, annotation and task retirement, at the same instants in the
// same order — and end with equal statistics and engine event counts.
func TestWorkerStateMachineMatchesReference(t *testing.T) {
	const cases = 200
	var both, zeroCost, idled int
	for seed := uint64(1); seed <= cases; seed++ {
		c := randomWorkerCase(seed)
		got, want := c.run(false), c.run(true)
		if !want.Done {
			t.Fatalf("%v: the reference did not finish", c)
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
				t.Errorf("%v: %s differs\n  state machine: %+v\n  reference:     %+v", c, gv.Type().Field(i).Name, g, w)
			}
		}
		if t.Failed() {
			t.FailNow() // the first diverging case says it all
		}
		if want.Suspensions > 0 && want.Resumes > 0 {
			both++
		}
		if c.dequeue == 0 || c.emptyCheck == 0 || c.complete == 0 || c.idleSpin == 0 {
			zeroCost++
		}
		if want.IdleSpins > 0 {
			idled++
		}
	}
	// The cases must reach what they are there for.
	t.Logf("%d cases: %d suspended and resumed workers, %d had a zero cost, %d idled on an empty queue", cases, both, zeroCost, idled)
	if both < cases/5 || zeroCost < cases/3 || idled < cases/3 {
		t.Errorf("of %d cases only %d both suspended and resumed workers, %d had a zero cost, %d idled on an empty queue",
			cases, both, zeroCost, idled)
	}
}
