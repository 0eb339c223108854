// Package apps builds the paper's four benchmark applications — fft,
// sort, gauss, and matmul (Section 6) — as task DAGs for the threads
// runtime, plus the uncontrollable background load used in the
// multiprogramming experiments. The generators reproduce each
// application's parallel *structure* (barriered stages, merge trees,
// shrinking elimination steps, independent row blocks); absolute work is
// calibrated so that paper-scale instances run for tens of virtual
// seconds on one process, like the originals on the Multimax.
package apps

import (
	"fmt"

	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// Each generator names its tasks through Workload.NameTasks with a
// function of the TaskID, derived from the shape it built: a task stores
// no name, and only a Spec export ever asks for one (a formatted name per
// task was over a third of building the Figure 4 mix of 103 k tasks).

// Matmul builds the paper's matrix multiplication: the multiplicand is
// split by rows into independent tasks (no synchronization beyond the
// shared task queue). rows*chunksPerRow tasks of perChunk work each.
func Matmul(rows, chunksPerRow int, perChunk sim.Duration) *threads.Workload {
	if rows <= 0 || chunksPerRow <= 0 {
		panic("apps: Matmul needs positive dimensions")
	}
	w := threads.NewWorkload("matmul")
	w.NameTasks(func(id threads.TaskID) string {
		return fmt.Sprintf("row%d.%d", int(id)/chunksPerRow, int(id)%chunksPerRow)
	})
	w.Grow(rows*chunksPerRow, 0)
	for i := 0; i < rows*chunksPerRow; i++ {
		w.Add(perChunk)
	}
	return w
}

// FFT builds the Norton/Silberger-style one-dimensional FFT: `stages`
// butterfly passes, each split into tasksPerStage parallel tasks, with a
// barrier between consecutive stages (every task of stage s depends on
// every task of stage s-1).
func FFT(stages, tasksPerStage int, perTask sim.Duration) *threads.Workload {
	if stages <= 0 || tasksPerStage <= 0 {
		panic("apps: FFT needs positive dimensions")
	}
	w := threads.NewWorkload("fft")
	w.NameTasks(func(id threads.TaskID) string {
		return fmt.Sprintf("s%d.t%d", int(id)/tasksPerStage, int(id)%tasksPerStage)
	})
	// A barrier is a span per near-side task. Barrier copies the far
	// side, so one array per side serves every stage.
	w.Grow(stages*tasksPerStage, (stages-1)*tasksPerStage)
	prev, cur := make([]threads.TaskID, 0, tasksPerStage), make([]threads.TaskID, tasksPerStage)
	for s := 0; s < stages; s++ {
		for t := range cur {
			cur[t] = w.Add(perTask)
		}
		w.Barrier(prev, cur)
		prev = append(prev[:0], cur...)
	}
	return w
}

// Gauss builds the parallel Gaussian elimination with partial pivoting:
// n-1 elimination steps; step k is a serial pivot task followed by
// parallel row-update tasks of rowsPerTask rows each (each row costs
// (n-k)·perElem), so the number of update tasks shrinks with the active
// submatrix, exactly like row-parallel elimination. Each update task
// ends with a short critical section on the pivot-search lock, modeling
// the max-reduction for the next pivot.
func Gauss(n, rowsPerTask int, perElem sim.Duration) *threads.Workload {
	if n < 2 || rowsPerTask <= 0 {
		panic("apps: Gauss needs n >= 2 and positive rowsPerTask")
	}
	const pivotLock threads.LockID = 0
	// Step k updates the m-1 = n-k-1 rows below its pivot.
	updates := func(k int) int { return (n - k - 1 + rowsPerTask - 1) / rowsPerTask }
	w := threads.NewWorkload("gauss")
	w.NameTasks(func(id threads.TaskID) string {
		i := int(id)
		for k := 0; k < n-1; k++ {
			if i == 0 {
				return fmt.Sprintf("pivot%d", k)
			}
			if i--; i < updates(k) {
				return fmt.Sprintf("upd%d.%d", k, i*rowsPerTask)
			}
			i -= updates(k)
		}
		return "backsub"
	})
	// n-1 pivots and backsub, then every update: its edge from its
	// pivot, and its edge into the next pivot (or backsub).
	total := 0
	for k := 0; k < n-1; k++ {
		total += updates(k)
	}
	w.Grow(n+total, 2*total)
	var prev, cur []threads.TaskID
	for k := 0; k < n-1; k++ {
		m := n - k // active submatrix dimension
		pivot := w.Add(sim.Duration(m)*perElem/4 + 50*sim.Microsecond)
		w.Barrier(prev, []threads.TaskID{pivot})

		rows := m - 1 // rows below the pivot to update
		cur = cur[:0]
		for r := 0; r < rows; r += rowsPerTask {
			nr := rowsPerTask
			if r+nr > rows {
				nr = rows - r
			}
			work := sim.Duration(int64(nr)*int64(m)) * perElem
			cs := 40 * sim.Microsecond
			if cs > work/4 {
				cs = work / 4
			}
			id := w.AddLocked(work, pivotLock, cs)
			w.Dep(pivot, id)
			cur = append(cur, id)
		}
		prev, cur = cur, prev
	}
	// Back substitution: a short serial tail.
	back := w.Add(sim.Duration(n) * perElem)
	w.Barrier(prev, []threads.TaskID{back})
	return w
}

// MergeSort builds the paper's parallel sort: `leaves` independent
// heapsort tasks of leafWork each, then a binary merge tree; a merge at
// level l combines two runs of leafItems·2^l items at perItem cost per
// item, halving the available parallelism each level until the final
// serial merge.
func MergeSort(leaves int, leafWork sim.Duration, leafItems int, perItem sim.Duration) *threads.Workload {
	if leaves < 2 || leaves&(leaves-1) != 0 {
		panic("apps: MergeSort needs a power-of-two leaf count >= 2")
	}
	w := threads.NewWorkload("sort")
	w.NameTasks(func(id threads.TaskID) string {
		i := int(id)
		if i < leaves {
			return fmt.Sprintf("heap%d", i)
		}
		i -= leaves
		lvl, width := 0, leaves/2
		for ; i >= width; lvl, width = lvl+1, width/2 {
			i -= width
		}
		return fmt.Sprintf("merge%d.%d", lvl, i)
	})
	// Every merge has two inbound edges.
	w.Grow(2*leaves-1, 2*(leaves-1))
	level := make([]threads.TaskID, leaves)
	for i := range level {
		level[i] = w.Add(leafWork)
	}
	items := int64(leafItems)
	for lvl := 0; len(level) > 1; lvl++ {
		next := make([]threads.TaskID, len(level)/2)
		work := sim.Duration(2*items) * perItem
		for i := range next {
			next[i] = w.Add(work)
			w.Dep(level[2*i], next[i])
			w.Dep(level[2*i+1], next[i])
		}
		level = next
		items *= 2
	}
	return w
}

// Paper-scale instances: sequential run times in the tens of seconds,
// task grain of a few milliseconds (the fine granularity for which the
// paper says the preemption problem is worst).

// PaperMatmul is the Figure 1/3/4 matrix multiplication: 512 rows × 12
// chunks, ~30.7 s sequential.
func PaperMatmul() *threads.Workload {
	return Matmul(512, 12, 5*sim.Millisecond)
}

// PaperFFT is the Figure 1/3/4 FFT: 12 stages × 384 tasks, ~24.6 s
// sequential.
func PaperFFT() *threads.Workload {
	return FFT(12, 384, 5333*sim.Microsecond)
}

// PaperGauss is the Figure 3/4 Gaussian elimination: a 256×256 system,
// ~28 s sequential.
func PaperGauss() *threads.Workload {
	return Gauss(256, 8, 5*sim.Microsecond)
}

// PaperSort is the Figure 3 merge sort: 256 lists of 4096 numbers,
// ~23.8 s sequential.
func PaperSort() *threads.Workload {
	return MergeSort(256, 60*sim.Millisecond, 4096, sim.Microsecond)
}

// Big instances for the multiprogrammed experiments (Figures 4 and 5):
// sequential run times of 160-260 s, so that applications started at the
// paper's 10 s intervals genuinely overlap, as on the Multimax.

// BigFFT is the Figure 4 FFT: ~262 s sequential.
func BigFFT() *threads.Workload {
	return FFT(12, 4096, 5333*sim.Microsecond)
}

// BigGauss is the Figure 4 Gaussian elimination: ~162 s sequential.
func BigGauss() *threads.Workload {
	return Gauss(460, 8, 5*sim.Microsecond)
}

// BigMatmul is the Figure 4 matrix multiplication: ~200 s sequential.
func BigMatmul() *threads.Workload {
	return Matmul(3328, 12, 5*sim.Millisecond)
}

// BigSort is a Figure 4-scale merge sort: ~144 s sequential.
func BigSort() *threads.Workload {
	return MergeSort(1024, 100*sim.Millisecond, 4096, sim.Microsecond)
}

// Tiny instances for unit tests: same shapes, milliseconds of work.

// TinyMatmul is a small matmul for tests.
func TinyMatmul() *threads.Workload { return Matmul(16, 2, sim.Millisecond) }

// TinyFFT is a small FFT for tests.
func TinyFFT() *threads.Workload { return FFT(4, 8, sim.Millisecond) }

// TinyGauss is a small gauss for tests.
func TinyGauss() *threads.Workload { return Gauss(16, 4, 2*sim.Microsecond) }

// TinySort is a small sort for tests.
func TinySort() *threads.Workload { return MergeSort(8, sim.Millisecond, 64, sim.Microsecond) }

// ByName returns the named workload: paper-scale (fft, sort, gauss,
// matmul) or multiprogramming-scale (bigfft, bigsort, biggauss,
// bigmatmul). Unknown names return nil.
func ByName(name string) *threads.Workload {
	switch name {
	case "fft":
		return PaperFFT()
	case "sort":
		return PaperSort()
	case "gauss":
		return PaperGauss()
	case "matmul":
		return PaperMatmul()
	case "bigfft":
		return BigFFT()
	case "bigsort":
		return BigSort()
	case "biggauss":
		return BigGauss()
	case "bigmatmul":
		return BigMatmul()
	default:
		return nil
	}
}

// Background spawns n uncontrollable processes (AppNone) that alternate
// busy computation and sleep — the compilers, editors, and daemons of
// the paper's Section 7 mix. A zero idle duration makes them fully
// CPU-bound. They run until the simulation ends.
func Background(k *kernel.Kernel, n int, busy, idle sim.Duration) []*kernel.Process {
	procs := make([]*kernel.Process, n)
	for i := 0; i < n; i++ {
		computing := false // the request the process is in, or was last in
		procs[i] = k.SpawnMember("bg", "", i, kernel.AppNone, 32<<10, func(*kernel.Env) kernel.Request {
			if computing = !computing; computing {
				return kernel.Compute(busy)
			}
			return kernel.SleepFor(idle)
		})
	}
	return procs
}
