// Package threads is the simulation analogue of the Brown University
// Threads package as modified by the paper: a user-level task-queue
// runtime that multiplexes an application's tasks onto kernel processes,
// with process-control hooks at the safe suspension points (task
// boundaries). Application code — the workload generators — only builds
// task DAGs; the runtime and the process control are, as in the paper,
// completely transparent to it.
package threads

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"procctl/internal/sim"
)

// TaskID indexes a task within its workload.
type TaskID int

// LockID names an application-level lock used by tasks for their
// critical sections (e.g. a shared accumulator). Lock 0 .. NumLocks-1
// are materialized as kernel spinlocks at launch.
type LockID int32

// NoLock marks a task with no application-level critical section.
const NoLock LockID = -1

// Task is one chunk of parallel computation ("thread" in Brown package
// terms). Tasks run to completion; a logical thread that blocks is
// modeled as a chain of tasks linked by dependencies, which is exactly
// how the paper's runtime requeues a partially executed thread. A Task
// is 40 bytes and holds no pointer — the task array is a figure's biggest
// allocation and the collector skips it — hence the 32-bit counts (see
// Workload.building) and the name kept apart, in Workload.names.
type Task struct {
	// Work is the CPU time the task consumes.
	Work sim.Duration
	// Lock and LockWork describe an optional critical section: LockWork
	// of the task's Work happens while holding Lock.
	LockWork sim.Duration
	Lock     LockID
	// head and tail index the first and last of the task's successor
	// spans in Workload.spans (-1: none): the tasks that cannot start
	// until this one finishes, in declaration order. A span is either one
	// inline edge (from Dep) or a reference to a successor group shared
	// by every task on the near side of a Barrier. Sharing the group
	// keeps an n×m barrier at O(n+m) memory instead of materializing n·m
	// edges — BigFFT's barriers alone were ~1.5 GB of edge slices before.
	head, tail int32
	// ndeps is the number of predecessor tasks (counting barrier edges
	// individually, exactly as if they were materialized; never more
	// than the workload has spans).
	ndeps int32
	// nspans is the number of inbound spans: inline Dep edges plus one
	// per barrier this task is on the far side of. The runtime counts
	// readiness in spans (a barrier group "fires" once, when its last
	// near-side task finishes), which is O(n+m) work per barrier yet
	// yields readiness instants and orders identical to per-edge
	// counting: a task's last inbound span resolves at the same moment
	// its last inbound edge would have.
	nspans int32
}

// succSpan is one entry of a task's successor list: an inline edge when
// group < 0, otherwise an index into the workload's shared groups. next
// is the task's following span in Workload.spans, -1 after the last.
type succSpan struct {
	group int32
	next  int32
	edge  TaskID
}

// eachSucc calls fn for every successor of t, in the exact order the
// edges were declared (Dep and Barrier calls in program order; within a
// barrier, the `to` slice in order).
func (w *Workload) eachSucc(t TaskID, fn func(TaskID)) {
	for i := w.tasks[t].head; i >= 0; i = w.spans[i].next {
		sp := w.spans[i]
		if sp.group < 0 {
			fn(sp.edge)
			continue
		}
		for _, s := range w.groups[sp.group] {
			fn(s)
		}
	}
}

// Workload is a DAG of tasks plus the locks they use. Build one with the
// Add/Dep/Barrier methods on a single goroutine. The first Validate —
// the first Launch at the latest — seals it: the verdict is computed
// once and kept, and Add, AddLocked, Dep, Barrier and Grow panic from
// then on, so what was validated is what every launch runs. Every other
// method — and the runtime, which keeps its progress state (dependency
// counters, ready queue) in the App — only reads it, so one sealed
// workload may back any number of launches, in any number of
// simulations running on concurrent goroutines. The figure drivers rely
// on this to build each DAG once per figure. Task returns a pointer into
// the workload: treat it as read-only.
//
// It is a struct of arrays indexed by TaskID: tasks holds what the
// runtime reads on every dispatch, names what only the Spec export does.
// All successor spans live in one arena, spans, chained per task through
// succSpan.next from Task.head to Task.tail: a build appends to one
// array, not to a slice per task (96 % of a Fig4 call's allocations).
type Workload struct {
	Name      string
	tasks     []Task
	names     []string
	spans     []succSpan
	groups    [][]TaskID // shared barrier successor groups
	groupFrom []int32    // per group: how many near-side tasks feed it
	numLocks  int

	// Barrier's both-sides check: mark[t] == markGen while t is on the
	// far side of the barrier being declared. Dropped at the seal.
	mark     []uint32
	markGen  uint32
	validate sync.Once
	verdict  error
	sealed   bool
	roots    int   // tasks with no predecessor, counted by the seal's walk
	overflow error // set by building; Validate's verdict if it is
}

// NewWorkload returns an empty workload.
func NewWorkload(name string) *Workload {
	return &Workload{Name: name}
}

// Grow makes room for tasks more tasks, and a successor span for each,
// so that a generator that knows its task count up front appends them
// without re-growing (and copying, and clearing) the arrays on the way
// there.
func (w *Workload) Grow(tasks int) {
	if !w.building(tasks, tasks) {
		return
	}
	w.tasks = slices.Grow(w.tasks, tasks)
	w.names = slices.Grow(w.names, tasks)
	w.spans = slices.Grow(w.spans, tasks)
}

// Add appends a task with no critical section and returns its ID.
func (w *Workload) Add(name string, work sim.Duration) TaskID {
	return w.AddLocked(name, work, NoLock, 0)
}

// AddLocked appends a task that spends lockWork of its work holding the
// given application lock.
func (w *Workload) AddLocked(name string, work sim.Duration, lock LockID, lockWork sim.Duration) TaskID {
	if work < 0 || lockWork < 0 || lockWork > work {
		panic(fmt.Sprintf("threads: task %q has invalid work %v / lockWork %v", name, work, lockWork))
	}
	if !w.building(1, 0) {
		return -1
	}
	if lock != NoLock {
		if int(lock) >= w.numLocks {
			w.numLocks = int(lock) + 1
		}
	}
	w.tasks = append(w.tasks, Task{Work: work, Lock: lock, LockWork: lockWork, head: -1, tail: -1})
	w.names = append(w.names, name)
	return TaskID(len(w.tasks) - 1)
}

// building is the gate of every builder method, told how many tasks and
// spans it is about to add. It panics once the workload is sealed:
// nothing joins it unchecked. And it reports whether there is room: a
// count past math.MaxInt32 would wrap the 32-bit indices, so that call
// and every later one adds nothing and Validate returns the error.
func (w *Workload) building(tasks, spans int) bool {
	if w.sealed {
		panic(fmt.Sprintf("threads: workload %q modified after its first Validate or Launch", w.Name))
	}
	if w.overflow == nil && (tasks > math.MaxInt32-len(w.tasks) || spans > math.MaxInt32-len(w.spans)) {
		w.overflow = fmt.Errorf("threads: workload %q has more than %d tasks or dependency spans", w.Name, math.MaxInt32)
	}
	return w.overflow == nil
}

// addSpan appends sp to task from's successor list.
func (w *Workload) addSpan(from TaskID, sp succSpan) {
	i := int32(len(w.spans))
	w.spans = append(w.spans, sp)
	if t := &w.tasks[from]; t.tail < 0 {
		t.head, t.tail = i, i
	} else {
		w.spans[t.tail].next = i
		t.tail = i
	}
}

// Dep records that task `to` cannot start until task `from` finishes.
func (w *Workload) Dep(from, to TaskID) {
	if !w.building(0, 1) {
		return
	}
	if from == to {
		panic("threads: task depends on itself")
	}
	w.addSpan(from, succSpan{group: -1, next: -1, edge: to})
	w.tasks[to].ndeps++
	w.tasks[to].nspans++
}

// Barrier makes every task in `to` depend on every task in `from` — the
// workload generators use it between parallel phases. The `to` set is
// stored once and shared by every `from` task, so an n×m barrier costs
// O(n+m) memory; dependency semantics (ndeps counts, readiness order)
// are identical to declaring each of the n·m edges with Dep.
func (w *Workload) Barrier(from, to []TaskID) {
	if !w.building(0, len(from)) || len(from) == 0 || len(to) == 0 {
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
	// 4096×4096 barriers were 184 M comparisons per build. The far side
	// is a stamp per task in a scratch array, not a map per barrier.
	w.mark = append(w.mark, make([]uint32, len(w.tasks)-len(w.mark))...)
	w.markGen++
	for _, t := range to {
		w.mark[t] = w.markGen
	}
	for _, f := range from {
		if w.mark[f] == w.markGen {
			panic("threads: task depends on itself")
		}
	}
	for _, t := range to {
		w.tasks[t].ndeps += int32(len(from))
		w.tasks[t].nspans++
	}
	g := int32(len(w.groups))
	w.groups = append(w.groups, append([]TaskID(nil), to...))
	w.groupFrom = append(w.groupFrom, int32(len(from)))
	for _, f := range from {
		w.addSpan(f, succSpan{group: g, next: -1, edge: -1})
	}
}

// Len returns the number of tasks.
func (w *Workload) Len() int { return len(w.tasks) }

// NumLocks returns how many application locks the tasks reference.
func (w *Workload) NumLocks() int { return w.numLocks }

// Task returns a read-only view of task id.
func (w *Workload) Task(id TaskID) *Task { return &w.tasks[id] }

// TaskName returns the name task id was added under.
func (w *Workload) TaskName(id TaskID) string { return w.names[id] }

// TotalWork sums the work of all tasks — the sequential execution time,
// used as the numerator of speedup.
func (w *Workload) TotalWork() sim.Duration {
	var total sim.Duration
	for i := range w.tasks {
		total += w.tasks[i].Work
	}
	return total
}

// CriticalPath returns the longest dependency chain's work — a lower
// bound on parallel execution time.
func (w *Workload) CriticalPath() sim.Duration {
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
// O(tasks + spans + group sizes), not O(materialized edges). The first
// call seals the workload and walks it; every call returns that verdict.
func (w *Workload) Validate() error {
	w.validate.Do(func() {
		w.sealed, w.mark = true, nil
		if w.verdict = w.overflow; w.verdict == nil {
			w.verdict = w.walk()
		}
	})
	return w.verdict
}

func (w *Workload) walk() error {
	if len(w.tasks) == 0 {
		return fmt.Errorf("threads: workload %q has no tasks", w.Name)
	}
	deg := make([]int32, len(w.tasks))
	for i := range w.tasks {
		deg[i] = w.tasks[i].nspans
	}
	gdeg := slices.Clone(w.groupFrom)
	// Every task enters the queue at most once, and it is walked by
	// index, never re-sliced from the front: one array, no copying.
	queue := make([]TaskID, 0, len(w.tasks))
	for i := range w.tasks {
		if deg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	w.roots = len(queue)
	ready := func(s TaskID) {
		deg[s]--
		if deg[s] == 0 {
			queue = append(queue, s)
		}
	}
	seen := 0
	for ; seen < len(queue); seen++ {
		for i := w.tasks[queue[seen]].head; i >= 0; i = w.spans[i].next {
			sp := w.spans[i]
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
