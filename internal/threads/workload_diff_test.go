package threads

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

func newTestKernel(ncpu int) (*sim.Engine, *kernel.Kernel) {
	eng := sim.NewEngine(1)
	return eng, kernel.New(eng, machine.New(machine.Config{NumCPU: ncpu}), kernel.NewTimeshare(), kernel.Config{Quantum: 10 * sim.Millisecond})
}

// builder is what a random build program needs of either implementation.
type builder interface {
	Grow(tasks, spans int)
	Add(work sim.Duration) TaskID
	AddLocked(work sim.Duration, lock LockID, lockWork sim.Duration) TaskID
	Dep(from, to TaskID)
	Barrier(from, to []TaskID)
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// randomBuild runs one random Add/Dep/Barrier program against both
// builders. Edges run from lower to higher task IDs unless cyclic is
// set, in which case some run backwards and Validate may reject the
// result. Barriers sample their sides with replacement (duplicate
// members), from ranges that overlap those of earlier barriers (a task
// in several groups), one side sometimes a single task (a join) or
// empty, and now and then with a task on both sides, which both
// builders must refuse the same way and forget.
func randomBuild(t *testing.T, rng *sim.RNG, w, ref builder, cyclic bool) {
	both := func(what string, f func(b builder)) {
		t.Helper()
		pw, pr := panicOf(func() { f(w) }), panicOf(func() { f(ref) })
		if !reflect.DeepEqual(pw, pr) {
			t.Fatalf("%s: arena builder panicked with %v, reference with %v", what, pw, pr)
		}
	}
	n := 0
	add := func() {
		work := sim.Duration(1+rng.Intn(50)) * sim.Millisecond
		if rng.Intn(3) == 0 {
			lock, lockWork := LockID(rng.Intn(3)), work/sim.Duration(1+rng.Intn(4))
			both("AddLocked", func(b builder) { b.AddLocked(work, lock, lockWork) })
		} else {
			both("Add", func(b builder) { b.Add(work) })
		}
		n++
	}
	sample := func(lo, hi, k int) []TaskID {
		ids := make([]TaskID, k)
		for i := range ids {
			ids[i] = TaskID(lo + rng.Intn(hi-lo))
		}
		return ids
	}
	if rng.Intn(2) == 0 {
		n := rng.Intn(64)
		both("Grow", func(b builder) { b.Grow(n, n) })
	}
	for i := 0; i < 4; i++ {
		add()
	}
	for steps := 20 + rng.Intn(120); steps > 0; steps-- {
		switch rng.Intn(6) {
		case 0, 1:
			add()
		case 2, 3:
			from := rng.Intn(n - 1)
			to := from + 1 + rng.Intn(n-from-1)
			if cyclic && rng.Intn(8) == 0 {
				from, to = to, from
			}
			both("Dep", func(b builder) { b.Dep(TaskID(from), TaskID(to)) })
		default:
			pivot := 1 + rng.Intn(n-1)
			from := sample(0, pivot, rng.Intn(6))
			to := sample(pivot, n, rng.Intn(6))
			if cyclic && rng.Intn(8) == 0 {
				from, to = to, from
			}
			if len(from) > 0 && len(to) > 0 && rng.Intn(10) == 0 {
				to[rng.Intn(len(to))] = from[rng.Intn(len(from))]
			}
			both("Barrier", func(b builder) { b.Barrier(from, to) })
		}
	}
}

// spansOf lists task id's successor spans in chain order, in the
// reference's form.
func (w *Workload) spansOf(id TaskID) []refSpan {
	var out []refSpan
	for i := w.tasks[id].head; i >= 0; i = w.spans[i].next {
		out = append(out, refSpan{group: w.spans[i].group, edge: w.spans[i].edge})
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestWorkloadMatchesReference builds random programs with the arena
// builder and with the per-task-slice builder it replaced, and requires
// everything the runtime, the figures and the Spec export read to be
// identical: each task's spans and flattened successors in declaration
// order, the edge and span counts, the barrier groups, Validate's
// verdict, CriticalPath and the Spec bytes.
func TestWorkloadMatchesReference(t *testing.T) {
	rng := sim.NewRNG(18)
	verdicts := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		name := fmt.Sprintf("prog%d", trial)
		w, ref := NewWorkload(name), newRefWorkload(name)
		randomBuild(t, rng, w, ref, trial%3 == 0)

		if w.Len() != ref.Len() || w.NumLocks() != ref.NumLocks() || w.TotalWork() != ref.TotalWork() {
			t.Fatalf("%s: %d tasks / %d locks / %v work, reference %d / %d / %v",
				name, w.Len(), w.NumLocks(), w.TotalWork(), ref.Len(), ref.NumLocks(), ref.TotalWork())
		}
		for i := 0; i < w.Len(); i++ {
			id := TaskID(i)
			got, want := w.Task(id), ref.Task(id)
			if w.TaskName(id) != want.Name || got.Work != want.Work || got.Lock != want.Lock || got.LockWork != want.LockWork {
				t.Fatalf("%s task %d: %q %+v, reference %+v", name, i, w.TaskName(id), *got, *want)
			}
			if int(got.ndeps) != want.ndeps || int(got.nspans) != want.nspans {
				t.Fatalf("%s task %d: ndeps %d nspans %d, reference %d and %d", name, i, got.ndeps, got.nspans, want.ndeps, want.nspans)
			}
			if spans := w.spansOf(id); !reflect.DeepEqual(spans, want.succs) {
				t.Fatalf("%s task %d: spans %v, reference %v", name, i, spans, want.succs)
			}
			var succs, refSuccs []TaskID
			w.eachSucc(id, func(s TaskID) { succs = append(succs, s) })
			ref.eachSucc(id, func(s TaskID) { refSuccs = append(refSuccs, s) })
			if !reflect.DeepEqual(succs, refSuccs) {
				t.Fatalf("%s task %d: successors %v, reference %v", name, i, succs, refSuccs)
			}
		}
		if !reflect.DeepEqual(w.groups, ref.groups) || !slices.EqualFunc(w.groupFrom, ref.groupFrom, func(a int32, b int) bool { return int(a) == b }) {
			t.Fatalf("%s: barrier groups differ from the reference", name)
		}
		if got, want := w.CriticalPath(), ref.CriticalPath(); got != want {
			t.Fatalf("%s: CriticalPath %v, reference %v", name, got, want)
		}
		var spec, refSpec bytes.Buffer
		if err := w.WriteSpec(&spec); err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteSpec(&refSpec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spec.Bytes(), refSpec.Bytes()) {
			t.Fatalf("%s: Spec export differs from the reference", name)
		}
		// Twice: the second verdict is the kept one.
		for i := 0; i < 2; i++ {
			if got, want := errText(w.Validate()), errText(ref.Validate()); got != want {
				t.Fatalf("%s: Validate call %d = %s, reference %s", name, i, got, want)
			}
		}
		verdicts[w.Validate() == nil]++
	}
	if verdicts[true] < 100 || verdicts[false] < 20 {
		t.Errorf("the programs gave %d valid and %d invalid workloads, want at least 100 and 20", verdicts[true], verdicts[false])
	}
}

// TestWorkloadSealedAfterValidate pins the contract Validate's cached
// verdict rests on: once validated (by hand, by a Launch, or as invalid)
// a workload refuses every builder method, with a message that names it.
func TestWorkloadSealedAfterValidate(t *testing.T) {
	build := func(name string) (*Workload, TaskID, TaskID) {
		w := NewWorkload(name)
		a, b := w.Add(10), w.Add(10)
		w.Dep(a, b)
		return w, a, b
	}
	valid, a, b := build("valid")
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	cyclic, ca, cb := build("cyclic")
	cyclic.Dep(cb, ca)
	if err := cyclic.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
	launched, la, lb := build("launched")
	_, k := newTestKernel(2)
	Launch(k, 1, launched, Config{Procs: 1})

	for _, tc := range []struct {
		w    *Workload
		a, b TaskID
	}{{valid, a, b}, {cyclic, ca, cb}, {launched, la, lb}} {
		want := fmt.Sprintf("threads: workload %q modified after its first Validate or Launch", tc.w.Name)
		for what, f := range map[string]func(){
			"Add":                func() { tc.w.Add(10) },
			"AddLocked":          func() { tc.w.AddLocked(10, 0, 5) },
			"Dep":                func() { tc.w.Dep(tc.a, tc.b) },
			"Barrier":            func() { tc.w.Barrier([]TaskID{tc.a}, []TaskID{tc.b}) },
			"Barrier of nothing": func() { tc.w.Barrier(nil, nil) },
			"Grow":               func() { tc.w.Grow(8, 8) },
			"NameTasks":          func() { tc.w.NameTasks(nil) },
		} {
			if got := panicOf(f); got != want {
				t.Errorf("%s: %s after the seal panicked with %v, want %q", tc.w.Name, what, got, want)
			}
		}
		if tc.w.Len() != 2 {
			t.Errorf("%s: a refused Add left %d tasks, want 2", tc.w.Name, tc.w.Len())
		}
	}
}

// TestConcurrentFirstLaunchesValidateOnce has several simulations launch
// one freshly built workload at the same moment (make race runs it under
// the detector). The walk must happen once: with an invalid workload
// every caller gets the very same error value, and once a valid one is
// sealed Validate allocates nothing — there is no second walk to make
// scratch for.
func TestConcurrentFirstLaunchesValidateOnce(t *testing.T) {
	const callers = 8
	wl := NewWorkload("shared")
	var prev []TaskID
	for stage := 0; stage < 6; stage++ {
		cur := make([]TaskID, 32)
		for i := range cur {
			cur[i] = wl.AddLocked(sim.Millisecond, 0, 100*sim.Microsecond)
		}
		wl.Barrier(prev, cur)
		prev = cur
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	elapsed := make([]sim.Duration, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, k := newTestKernel(4)
			<-start
			app := Launch(k, 1, wl, Config{Procs: 4})
			eng.RunUntilIdle()
			if !app.Done() {
				t.Errorf("caller %d: the shared workload did not finish", i)
				return
			}
			elapsed[i] = app.Elapsed()
		}()
	}
	close(start)
	wg.Wait()
	for i, d := range elapsed {
		if d != elapsed[0] {
			t.Errorf("caller %d finished in %v, caller 0 in %v: same workload, same seed", i, d, elapsed[0])
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := wl.Validate(); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("Validate of a sealed workload allocates %.0f objects, want 0 (it walked again)", n)
	}

	bad := NewWorkload("cyclic")
	a, b := bad.Add(1), bad.Add(1)
	bad.Dep(a, b)
	bad.Dep(b, a)
	errs := make([]error, callers)
	start = make(chan struct{})
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = bad.Validate()
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err == nil || err != errs[0] {
			t.Errorf("caller %d got %v, caller 0 got %v: want one shared verdict", i, err, errs[0])
		}
	}
}
