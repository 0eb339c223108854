package kernel

// Affinity is the Lazowska/Squillante cache-affinity discipline from the
// paper's Section 3: a preempted process is requeued on the processor it
// last ran on, so that it finds its working set still in that cache. To
// avoid the load imbalance the paper notes, idle processors steal from
// the longest remote queue once the imbalance reaches stealThreshold.
type Affinity struct {
	defaultHooks
	k     *Kernel
	local []FIFO[*Process] // one run queue per CPU
}

// stealThreshold is the remote queue length at which an idle processor
// migrates a process instead of idling.
const stealThreshold = 2

// NewAffinity returns the policy.
func NewAffinity() *Affinity { return &Affinity{} }

// Name implements Policy.
func (a *Affinity) Name() string { return "affinity" }

// Attach implements Policy.
func (a *Affinity) Attach(k *Kernel) {
	a.k = k
	a.local = make([]FIFO[*Process], k.NumCPU())
}

// Enqueue implements Policy: back to the last CPU's queue; processes
// that never ran go to the shortest queue.
func (a *Affinity) Enqueue(p *Process) {
	cpu := p.lastCPU
	if cpu < 0 {
		cpu = a.shortest()
	}
	a.local[cpu].Push(p)
}

func (a *Affinity) shortest() int {
	best := 0
	for i := 1; i < len(a.local); i++ {
		if a.local[i].Len() < a.local[best].Len() {
			best = i
		}
	}
	return best
}

func (a *Affinity) longest() int {
	best := 0
	for i := 1; i < len(a.local); i++ {
		if a.local[i].Len() > a.local[best].Len() {
			best = i
		}
	}
	return best
}

// PickNext implements Policy: local queue first; otherwise steal from
// the longest queue if it is long enough to justify losing affinity.
func (a *Affinity) PickNext(cpu int) *Process {
	if p := a.local[cpu].Pop(); p != nil {
		return p
	}
	victim := a.longest()
	if a.local[victim].Len() >= stealThreshold {
		return a.local[victim].Pop()
	}
	// Steal even a single waiting process rather than idle forever, but
	// only from a queue whose own CPU is busy.
	if a.local[victim].Len() > 0 && a.k.RunningOn(victim) != nil {
		return a.local[victim].Pop()
	}
	return nil
}
