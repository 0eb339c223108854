package threads_test

import (
	"testing"

	"procctl/internal/apps"
	"procctl/internal/ctrl"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/metrics"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// newSim builds a small frictionless machine for exact-time assertions.
func newSim(ncpu int) *kernel.Kernel {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: ncpu})
	return kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{
		Quantum: 100 * sim.Millisecond, QuantumJitter: -1,
	})
}

// runApp drives the simulation until the app finishes (bounded).
func runApp(t *testing.T, k *kernel.Kernel, a *threads.App) {
	t.Helper()
	horizon := sim.Time(600 * sim.Second)
	for !a.Done() && k.Engine().Now() < horizon {
		k.Engine().Run(k.Engine().Now().Add(sim.Second))
	}
	if !a.Done() {
		t.Fatalf("app %s did not finish", a.Name())
	}
}

// appCount reads one of a's series, derived from the runtime's counts
// when read.
func appCount(k *kernel.Kernel, base string, a *threads.App) int64 {
	n, _ := k.Metrics().Value(metrics.Name(base, "app", a.Name()))
	return n
}

func TestEveryTaskRunsExactlyOnce(t *testing.T) {
	k := newSim(4)
	wl := apps.TinyFFT()
	seen := make(map[threads.TaskID]int)
	a := threads.Launch(k, 1, wl, threads.Config{
		Procs:      4,
		OnTaskDone: func(id threads.TaskID) { seen[id]++ },
	})
	runApp(t, k, a)
	if len(seen) != wl.Len() {
		t.Fatalf("%d distinct tasks completed, want %d", len(seen), wl.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d ran %d times", id, n)
		}
	}
	if got := appCount(k, "sim_app_tasks_total", a); got != int64(wl.Len()) {
		t.Errorf("TasksRun = %d, want %d", got, wl.Len())
	}
}

// TestSameNameLaunchesShareSeries: two launches of one workload name in
// one kernel derive one set of series, which add up both runs' counts
// (the figures aggregate repeated runs by name), and the service
// histogram's count is the tasks both retired.
func TestSameNameLaunchesShareSeries(t *testing.T) {
	k := newSim(4)
	wl := apps.TinyFFT()
	a := threads.Launch(k, 1, wl, threads.Config{Procs: 2})
	b := threads.Launch(k, 2, wl, threads.Config{Procs: 2})
	runApp(t, k, a)
	runApp(t, k, b)
	snap := k.MetricsSnapshot()
	tasks := snap.Get(metrics.Name("sim_app_tasks_total", "app", wl.Name))
	service := snap.Get(metrics.Name("sim_app_task_service_micros", "app", wl.Name))
	if tasks == nil || service == nil {
		t.Fatalf("%s's series missing from the snapshot", wl.Name)
	}
	if want := int64(2 * wl.Len()); tasks.Value != want || service.Count != want {
		t.Errorf("tasks_total %d, service count %d; want both %d", tasks.Value, service.Count, want)
	}
	n := 0
	for _, m := range snap.Metrics {
		if m.Base == "sim_app_tasks_total" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d sim_app_tasks_total series, want 1", n)
	}
}

func TestDependencyOrderRespected(t *testing.T) {
	k := newSim(8)
	wl := threads.NewWorkload("dag")
	a1 := wl.Add(5 * sim.Millisecond)
	a2 := wl.Add(sim.Millisecond)
	b := wl.Add(sim.Millisecond)
	c := wl.Add(sim.Millisecond)
	wl.Dep(a1, b)
	wl.Dep(a2, b)
	wl.Dep(b, c)
	var order []threads.TaskID
	app := threads.Launch(k, 1, wl, threads.Config{
		Procs:      8,
		OnTaskDone: func(id threads.TaskID) { order = append(order, id) },
	})
	runApp(t, k, app)
	pos := map[threads.TaskID]int{}
	for i, id := range order {
		pos[id] = i
	}
	if !(pos[a1] < pos[b] && pos[a2] < pos[b] && pos[b] < pos[c]) {
		t.Errorf("dependency order violated: %v", order)
	}
}

func TestSingleProcessRunsEverything(t *testing.T) {
	k := newSim(2)
	wl := apps.TinyGauss()
	a := threads.Launch(k, 1, wl, threads.Config{Procs: 1})
	runApp(t, k, a)
	if got := appCount(k, "sim_app_tasks_total", a); got != int64(wl.Len()) {
		t.Errorf("TasksRun = %d, want %d", got, wl.Len())
	}
}

func TestElapsedScalesWithProcs(t *testing.T) {
	elapsed := func(procs int) sim.Duration {
		k := newSim(8)
		a := threads.Launch(k, 1, apps.Matmul(64, 1, sim.Millisecond), threads.Config{Procs: procs})
		runApp(t, k, a)
		return a.Elapsed()
	}
	e1, e4 := elapsed(1), elapsed(4)
	if e4 >= e1 {
		t.Errorf("4 procs (%v) not faster than 1 (%v)", e4, e1)
	}
	if ratio := float64(e1) / float64(e4); ratio < 2.5 {
		t.Errorf("speedup with 4 procs only %.2f", ratio)
	}
}

func TestSuspensionTracksTarget(t *testing.T) {
	// A fake controller that halves the target after the first poll.
	k := newSim(4)
	fc := &fakeController{target: 4}
	wl := apps.Matmul(2000, 1, sim.Millisecond)
	a := threads.Launch(k, 1, wl, threads.Config{
		Procs:        4,
		Controller:   fc,
		PollInterval: 10 * sim.Millisecond,
	})
	k.Engine().Run(sim.Time(5 * sim.Millisecond))
	fc.target = 2
	k.Engine().Run(sim.Time(100 * sim.Millisecond))
	// After a poll and suspensions, exactly 2 workers should be
	// runnable (kernel view).
	perApp := k.CountByApp(nil)
	if perApp[1] != 2 {
		t.Errorf("runnable workers = %d, want 2", perApp[1])
	}
	if a.Runnable() != 2 || a.Target() != 2 {
		t.Errorf("runtime view runnable=%d target=%d, want 2/2", a.Runnable(), a.Target())
	}
	fc.target = 4
	k.Engine().Run(sim.Time(250 * sim.Millisecond))
	perApp = k.CountByApp(nil)
	if perApp[1] != 4 {
		t.Errorf("after raise, runnable = %d, want 4", perApp[1])
	}
	runApp(t, k, a)
	if sus, res := appCount(k, "sim_app_suspensions_total", a), appCount(k, "sim_app_resumes_total", a); sus < 2 || res < 2 {
		t.Errorf("suspensions=%d resumes=%d", sus, res)
	}
	if !fc.registered || !fc.unregistered {
		t.Error("register/unregister not called")
	}
}

func TestTargetFloorKeepsOneRunnable(t *testing.T) {
	k := newSim(2)
	fc := &fakeController{target: 0} // malicious controller
	a := threads.Launch(k, 1, apps.Matmul(100, 1, sim.Millisecond), threads.Config{
		Procs:        2,
		Controller:   fc,
		PollInterval: sim.Millisecond,
	})
	k.Engine().Run(sim.Time(50 * sim.Millisecond))
	perApp := k.CountByApp(nil)
	if perApp[1] < 1 {
		t.Fatal("application fully suspended: starvation")
	}
	fc.target = 2
	runApp(t, k, a)
}

func TestSuspendedWorkersExitAtFinish(t *testing.T) {
	k := newSim(4)
	fc := &fakeController{target: 1}
	a := threads.Launch(k, 1, apps.Matmul(50, 1, sim.Millisecond), threads.Config{
		Procs:        4,
		Controller:   fc,
		PollInterval: sim.Millisecond,
	})
	runApp(t, k, a)
	if k.Live() != 0 {
		t.Errorf("%d processes still live after app finished", k.Live())
	}
}

func TestUncontrolledHasNoOverhead(t *testing.T) {
	// With and without a controller at full allocation, run times match
	// almost exactly (the paper's "overhead is negligible").
	run := func(ctl threads.Controller) sim.Duration {
		k := newSim(4)
		a := threads.Launch(k, 1, apps.Matmul(200, 1, sim.Millisecond), threads.Config{
			Procs:      4,
			Controller: ctl,
		})
		runApp(t, k, a)
		return a.Elapsed()
	}
	off := run(nil)
	on := run(&fakeController{target: 4})
	diff := float64(on-off) / float64(off)
	if diff > 0.02 && diff < -0.02 {
		t.Errorf("control overhead %.1f%% at full allocation", 100*diff)
	}
}

func TestLaunchValidations(t *testing.T) {
	k := newSim(1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AppNone launch", func() {
		threads.Launch(k, kernel.AppNone, apps.TinyMatmul(), threads.Config{Procs: 1})
	})
	mustPanic("invalid workload", func() {
		threads.Launch(k, 1, threads.NewWorkload("empty"), threads.Config{Procs: 1})
	})
	mustPanic("Elapsed before done", func() {
		a := threads.Launch(k, 2, apps.TinyMatmul(), threads.Config{Procs: 1})
		a.Elapsed()
	})
}

func TestWithRealServer(t *testing.T) {
	// Integration: two applications under the simulated central server
	// keep total runnable at the CPU count.
	eng := sim.NewEngine(3)
	mac := machine.New(machine.Config{NumCPU: 4})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 20 * sim.Millisecond})
	srv := ctrl.NewServer(k, 100*sim.Millisecond)
	cfg := threads.Config{Procs: 4, Controller: srv, PollInterval: 200 * sim.Millisecond}
	a1 := threads.Launch(k, 1, apps.Matmul(3000, 1, sim.Millisecond), cfg)
	a2 := threads.Launch(k, 2, apps.Matmul(3000, 1, sim.Millisecond), cfg)
	overLimit := 0
	checks := 0
	for !(a1.Done() && a2.Done()) && eng.Now() < sim.Time(60*sim.Second) {
		eng.Run(eng.Now().Add(50 * sim.Millisecond))
		if eng.Now() > sim.Time(400*sim.Millisecond) { // allow convergence
			perApp := k.CountByApp(nil)
			checks++
			if perApp[1]+perApp[2] > 4 {
				overLimit++
			}
		}
	}
	if !(a1.Done() && a2.Done()) {
		t.Fatal("apps did not finish")
	}
	if checks == 0 {
		t.Fatal("no samples taken")
	}
	if frac := float64(overLimit) / float64(checks); frac > 0.1 {
		t.Errorf("runnable exceeded CPU count in %.0f%% of samples", frac*100)
	}
}

// fakeController is a scriptable threads.Controller.
type fakeController struct {
	target       int
	registered   bool
	unregistered bool
	polls        int
}

func (f *fakeController) Register(id kernel.AppID, procs int) { f.registered = true }
func (f *fakeController) Unregister(id kernel.AppID)          { f.unregistered = true }
func (f *fakeController) Poll(id kernel.AppID) int {
	f.polls++
	return f.target
}
