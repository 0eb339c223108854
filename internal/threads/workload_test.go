package threads

import (
	"testing"
	"time"

	"procctl/internal/sim"
)

func TestWorkloadBuild(t *testing.T) {
	w := NewWorkload("test")
	a := w.Add(10 * sim.Millisecond)
	b := w.Add(20 * sim.Millisecond)
	c := w.AddLocked(30*sim.Millisecond, 0, 5*sim.Millisecond)
	w.Dep(a, b)
	w.Dep(a, c)
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
	if w.NumLocks() != 1 {
		t.Fatalf("NumLocks = %d", w.NumLocks())
	}
	if w.TotalWork() != 60*sim.Millisecond {
		t.Errorf("TotalWork = %v", w.TotalWork())
	}
	nsucc := 0
	w.eachSucc(a, func(TaskID) { nsucc++ })
	if w.Task(b).ndeps != 1 || nsucc != 2 {
		t.Error("dependency bookkeeping wrong")
	}
	if err := w.Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
}

func TestWorkloadInvalidTask(t *testing.T) {
	w := NewWorkload("bad")
	defer func() {
		if recover() == nil {
			t.Error("lockWork > work accepted")
		}
	}()
	w.AddLocked(10, 0, 20)
}

func TestWorkloadSelfDep(t *testing.T) {
	w := NewWorkload("bad")
	a := w.Add(10)
	defer func() {
		if recover() == nil {
			t.Error("self-dependency accepted")
		}
	}()
	w.Dep(a, a)
}

func TestWorkloadCycleDetected(t *testing.T) {
	w := NewWorkload("cycle")
	a := w.Add(10)
	b := w.Add(10)
	w.Dep(a, b)
	w.Dep(b, a)
	if err := w.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestWorkloadEmptyInvalid(t *testing.T) {
	if err := NewWorkload("empty").Validate(); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestBarrier(t *testing.T) {
	w := NewWorkload("barrier")
	var front, back []TaskID
	for i := 0; i < 3; i++ {
		front = append(front, w.Add(10))
	}
	for i := 0; i < 2; i++ {
		back = append(back, w.Add(10))
	}
	w.Barrier(front, back)
	for _, id := range back {
		if w.Task(id).ndeps != 3 {
			t.Errorf("task %d has %d deps, want 3", id, w.Task(id).ndeps)
		}
	}
	if err := w.Validate(); err != nil {
		t.Errorf("barriered workload invalid: %v", err)
	}
}

func TestCriticalPath(t *testing.T) {
	w := NewWorkload("cp")
	a := w.Add(10 * sim.Millisecond)
	b := w.Add(20 * sim.Millisecond)
	c := w.Add(30 * sim.Millisecond)
	d := w.Add(5 * sim.Millisecond)
	w.Dep(a, b) // chain a->b = 30
	w.Dep(a, c) // chain a->c = 40
	w.Dep(c, d) // chain a->c->d = 45
	if got := w.CriticalPath(); got != 45*sim.Millisecond {
		t.Errorf("CriticalPath = %v, want 45ms", got)
	}
}

func TestCriticalPathIndependent(t *testing.T) {
	w := NewWorkload("flat")
	for i := 0; i < 5; i++ {
		w.Add(sim.Duration(i+1) * sim.Millisecond)
	}
	if got := w.CriticalPath(); got != 5*sim.Millisecond {
		t.Errorf("CriticalPath = %v, want 5ms (longest single task)", got)
	}
}

func TestBarrierOverlapPanics(t *testing.T) {
	// The shared task sits first, in the middle and last on either side;
	// each must be rejected with Dep's message, before anything is
	// recorded.
	for _, tc := range []struct{ fromAt, toAt int }{{0, 0}, {0, 3}, {3, 0}, {2, 1}, {3, 3}} {
		w := NewWorkload("overlap")
		var from, to []TaskID
		for i := 0; i < 4; i++ {
			from = append(from, w.Add(10))
		}
		for i := 0; i < 4; i++ {
			to = append(to, w.Add(10))
		}
		to[tc.toAt] = from[tc.fromAt]
		func() {
			defer func() {
				if r := recover(); r != "threads: task depends on itself" {
					t.Errorf("overlap at from[%d]/to[%d]: recovered %v, want the self-dependency panic", tc.fromAt, tc.toAt, r)
				}
			}()
			w.Barrier(from, to)
		}()
		for i := 0; i < w.Len(); i++ {
			if task := w.Task(TaskID(i)); task.ndeps != 0 || task.nspans != 0 || task.head >= 0 || task.tail >= 0 {
				t.Errorf("overlap at from[%d]/to[%d]: rejected barrier left edges on task %d", tc.fromAt, tc.toAt, i)
			}
		}
	}
}

func TestBarrierBuildsInLinearTime(t *testing.T) {
	// BigFFT's shape first, then a barrier wide enough that the old
	// from×to scan (1.7e10 comparisons) could not finish inside the
	// bound on any host, while one pass over each side takes
	// milliseconds.
	for _, n := range []int{4096, 1 << 17} {
		w := NewWorkload("wide")
		from, to := make([]TaskID, n), make([]TaskID, n)
		for i := range from {
			from[i] = w.Add(1)
		}
		for i := range to {
			to[i] = w.Add(1)
		}
		start := time.Now()
		w.Barrier(from, to)
		if d := time.Since(start); d > time.Second {
			t.Errorf("%d×%d barrier took %v to build, want well under 1s", n, n, d)
		}
		if got := int(w.Task(to[n-1]).ndeps); got != n {
			t.Errorf("%d×%d barrier: last far-side task has %d deps, want %d", n, n, got, n)
		}
		if err := w.Validate(); err != nil {
			t.Error(err)
		}
	}
}
