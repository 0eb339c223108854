package threads

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"procctl/internal/sim"
)

// The workload builder as it was before the successor spans moved into
// one arena: a succs slice per task, a map per barrier, a Validate that
// walks on every call. Kept verbatim (types renamed ref*) as the oracle
// of TestWorkloadMatchesReference, apart from the builder methods'
// signatures, which follow the arena builder's: a task is added without
// a name and named task<id>, TaskName's default.

// refTask is one chunk of parallel computation ("thread" in Brown package
// terms). Tasks run to completion; a logical thread that blocks is
// modeled as a chain of tasks linked by dependencies, which is exactly
// how the paper's runtime requeues a partially executed thread.
type refTask struct {
	Name string
	// Work is the CPU time the task consumes.
	Work sim.Duration
	// Lock and LockWork describe an optional critical section: LockWork
	// of the task's Work happens while holding Lock.
	Lock     LockID
	LockWork sim.Duration
	// succs lists the tasks that cannot start until this one finishes,
	// as an ordered sequence of spans: a span is either one inline edge
	// (from Dep) or a reference to a successor group shared by every
	// task on the near side of a Barrier. Sharing the group keeps an
	// n×m barrier at O(n+m) memory instead of materializing n·m edges —
	// BigFFT's barriers alone were ~1.5 GB of edge slices before.
	succs []refSpan
	// ndeps is the number of predecessor tasks (counting barrier edges
	// individually, exactly as if they were materialized).
	ndeps int
	// nspans is the number of inbound spans: inline Dep edges plus one
	// per barrier this task is on the far side of. The runtime counts
	// readiness in spans (a barrier group "fires" once, when its last
	// near-side task finishes), which is O(n+m) work per barrier yet
	// yields readiness instants and orders identical to per-edge
	// counting: a task's last inbound span resolves at the same moment
	// its last inbound edge would have.
	nspans int
}

// refSpan is one entry of a task's successor list: an inline edge when
// group < 0, otherwise an index into the workload's shared groups.
type refSpan struct {
	group int32
	edge  TaskID
}

// eachSucc calls fn for every successor of t, in the exact order the
// edges were declared (Dep and Barrier calls in program order; within a
// barrier, the `to` slice in order).
func (w *refWorkload) eachSucc(t TaskID, fn func(TaskID)) {
	for _, sp := range w.tasks[t].succs {
		if sp.group < 0 {
			fn(sp.edge)
			continue
		}
		for _, s := range w.groups[sp.group] {
			fn(s)
		}
	}
}

// refWorkload is a DAG of tasks plus the locks they use. Build one with the
// Add/Dep/Barrier methods on a single goroutine; from the first Launch
// on it is immutable. Every other method — and the runtime, which keeps
// its progress state (dependency counters, ready queue) in the App and
// allocates its own scratch in Validate — only reads it, so one built
// workload may back any number of launches, in any number of
// simulations running on concurrent goroutines. The figure drivers rely
// on this to build each DAG once per figure. Task returns a pointer into
// the workload: treat it as read-only.
type refWorkload struct {
	Name      string
	tasks     []refTask
	groups    [][]TaskID // shared barrier successor groups
	groupFrom []int      // per group: how many near-side tasks feed it
	numLocks  int
}

// newRefWorkload returns an empty workload.
func newRefWorkload(name string) *refWorkload {
	return &refWorkload{Name: name}
}

// Grow makes room for tasks more tasks, so that a generator that knows
// its task count up front appends them without re-growing (and copying,
// and clearing) the task array on the way there. The spans count is the
// arena builder's; the reference has no arena.
func (w *refWorkload) Grow(tasks, spans int) {
	w.tasks = slices.Grow(w.tasks, tasks)
}

// Add appends a task with no critical section and returns its ID.
func (w *refWorkload) Add(work sim.Duration) TaskID {
	return w.AddLocked(work, NoLock, 0)
}

// AddLocked appends a task that spends lockWork of its work holding the
// given application lock.
func (w *refWorkload) AddLocked(work sim.Duration, lock LockID, lockWork sim.Duration) TaskID {
	name := fmt.Sprintf("task%d", len(w.tasks))
	if work < 0 || lockWork < 0 || lockWork > work {
		panic(fmt.Sprintf("threads: task %d has invalid work %v / lockWork %v", len(w.tasks), work, lockWork))
	}
	if lock != NoLock {
		if int(lock) >= w.numLocks {
			w.numLocks = int(lock) + 1
		}
	}
	w.tasks = append(w.tasks, refTask{Name: name, Work: work, Lock: lock, LockWork: lockWork})
	return TaskID(len(w.tasks) - 1)
}

// Dep records that task `to` cannot start until task `from` finishes.
func (w *refWorkload) Dep(from, to TaskID) {
	if from == to {
		panic("threads: task depends on itself")
	}
	w.tasks[from].succs = append(w.tasks[from].succs, refSpan{group: -1, edge: to})
	w.tasks[to].ndeps++
	w.tasks[to].nspans++
}

// Barrier makes every task in `to` depend on every task in `from` — the
// workload generators use it between parallel phases. The `to` set is
// stored once and shared by every `from` task, so an n×m barrier costs
// O(n+m) memory; dependency semantics (ndeps counts, readiness order)
// are identical to declaring each of the n·m edges with Dep.
func (w *refWorkload) Barrier(from, to []TaskID) {
	if len(from) == 0 || len(to) == 0 {
		return
	}
	if len(to) == 1 {
		// A join barrier: inline edges are smaller than a shared group.
		for _, f := range from {
			w.Dep(f, to[0])
		}
		return
	}
	// A task on both sides would wait for itself. One pass over each
	// side, not a pass over `to` per `from` task: BigFFT's eleven
	// 4096×4096 barriers were 184 M comparisons per build.
	far := make(map[TaskID]struct{}, len(to))
	for _, t := range to {
		far[t] = struct{}{}
	}
	for _, f := range from {
		if _, both := far[f]; both {
			panic("threads: task depends on itself")
		}
	}
	for _, t := range to {
		w.tasks[t].ndeps += len(from)
		w.tasks[t].nspans++
	}
	g := int32(len(w.groups))
	w.groups = append(w.groups, append([]TaskID(nil), to...))
	w.groupFrom = append(w.groupFrom, len(from))
	for _, f := range from {
		w.tasks[f].succs = append(w.tasks[f].succs, refSpan{group: g, edge: -1})
	}
}

// Len returns the number of tasks.
func (w *refWorkload) Len() int { return len(w.tasks) }

// NumLocks returns how many application locks the tasks reference.
func (w *refWorkload) NumLocks() int { return w.numLocks }

// Task returns a read-only view of task id.
func (w *refWorkload) Task(id TaskID) *refTask { return &w.tasks[id] }

// TotalWork sums the work of all tasks — the sequential execution time,
// used as the numerator of speedup.
func (w *refWorkload) TotalWork() sim.Duration {
	var total sim.Duration
	for i := range w.tasks {
		total += w.tasks[i].Work
	}
	return total
}

// CriticalPath returns the longest dependency chain's work — a lower
// bound on parallel execution time.
func (w *refWorkload) CriticalPath() sim.Duration {
	memo := make([]sim.Duration, len(w.tasks))
	done := make([]bool, len(w.tasks))
	var longest func(i TaskID) sim.Duration
	longest = func(i TaskID) sim.Duration {
		if done[i] {
			return memo[i]
		}
		done[i] = true // set before recursion; DAG has no cycles by construction
		var best sim.Duration
		w.eachSucc(i, func(s TaskID) {
			if d := longest(s); d > best {
				best = d
			}
		})
		memo[i] = best + w.tasks[i].Work
		return memo[i]
	}
	var best sim.Duration
	for i := range w.tasks {
		if w.tasks[i].ndeps == 0 {
			if d := longest(TaskID(i)); d > best {
				best = d
			}
		}
	}
	return best
}

// Validate checks the DAG for executability: at least one root and no
// unreachable tasks under Kahn's algorithm (which also rejects cycles).
// It runs over the span graph — barrier groups are collapsed nodes that
// fire once all their near-side tasks are processed — so the cost is
// O(tasks + spans + group sizes), not O(materialized edges).
func (w *refWorkload) Validate() error {
	if len(w.tasks) == 0 {
		return fmt.Errorf("threads: workload %q has no tasks", w.Name)
	}
	deg := make([]int, len(w.tasks))
	for i := range w.tasks {
		deg[i] = w.tasks[i].nspans
	}
	gdeg := append([]int(nil), w.groupFrom...)
	// Every task enters the queue at most once, and it is walked by
	// index, never re-sliced from the front: one array, no copying.
	queue := make([]TaskID, 0, len(w.tasks))
	for i := range w.tasks {
		if deg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	ready := func(s TaskID) {
		deg[s]--
		if deg[s] == 0 {
			queue = append(queue, s)
		}
	}
	seen := 0
	for ; seen < len(queue); seen++ {
		t := queue[seen]
		for _, sp := range w.tasks[t].succs {
			if sp.group < 0 {
				ready(sp.edge)
				continue
			}
			gdeg[sp.group]--
			if gdeg[sp.group] == 0 {
				for _, s := range w.groups[sp.group] {
					ready(s)
				}
			}
		}
	}
	if seen != len(w.tasks) {
		return fmt.Errorf("threads: workload %q has a dependency cycle or unreachable tasks (%d of %d reachable)",
			w.Name, seen, len(w.tasks))
	}
	return nil
}

// WriteSpec serializes the workload as an indented JSON spec —
// round-trips with ParseSpec, and exports the built-in generators as
// starting points.
func (w *refWorkload) WriteSpec(out io.Writer) error {
	spec := Spec{Name: w.Name}
	// Reconstruct dependency lists (succs store the forward edges).
	deps := make([][]int, len(w.tasks))
	for i := range w.tasks {
		w.eachSucc(TaskID(i), func(s TaskID) {
			deps[s] = append(deps[s], i)
		})
	}
	for i := range w.tasks {
		t := &w.tasks[i]
		ts := TaskSpec{Name: t.Name, WorkUS: int64(t.Work), Deps: deps[i]}
		if t.Lock != NoLock {
			lock := int(t.Lock)
			ts.Lock = &lock
			ts.LockWorkUS = int64(t.LockWork)
		}
		spec.Tasks = append(spec.Tasks, ts)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&spec); err != nil {
		return fmt.Errorf("threads: write spec: %w", err)
	}
	return nil
}
