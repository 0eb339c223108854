package kernel

import "procctl/internal/sim"

// SpinFlag is the Zahorjan et al. scheduler from the paper's Section 3:
// a time-sharing policy that (i) refuses to preempt a process while it
// holds a spinlock (the process "sets a flag" when entering a critical
// section — here the policy reads the kernel's list of the locks it
// holds), and (ii) avoids dispatching a process that would only spin on
// a lock whose holder is not running.
//
// The paper's criticisms are visible in this model: every lock holder is
// exempt from preemption even when holders are independent (the hash
// table example), and neither context-switch overhead nor cache
// corruption improves.
type SpinFlag struct {
	defaultHooks
	k          *Kernel
	q          FIFO[*Process]
	extensions map[PID]int
}

const (
	// extension is how much extra time a flagged process gets each time
	// its quantum expires inside a critical section.
	extension = 2 * sim.Millisecond
	// maxExtensions bounds consecutive extensions so a buggy or greedy
	// process cannot monopolize a CPU.
	maxExtensions = 50
)

// NewSpinFlag returns the policy.
func NewSpinFlag() *SpinFlag { return &SpinFlag{} }

// Name implements Policy.
func (s *SpinFlag) Name() string { return "spinflag" }

// Attach implements Policy.
func (s *SpinFlag) Attach(k *Kernel) {
	s.k = k
	s.extensions = make(map[PID]int)
}

// Enqueue implements Policy.
func (s *SpinFlag) Enqueue(p *Process) { s.q.Push(p) }

// PickNext implements Policy: FIFO, but skip processes that would
// immediately spin on a lock whose holder is off-processor.
func (s *SpinFlag) PickNext(cpu int) *Process {
	p := s.q.popWhere(func(p *Process) bool {
		l := p.waitingLock
		if l == nil || l.holder == nil {
			return true
		}
		return l.holder.state == Running
	})
	if p == nil {
		// Everyone queued is a doomed spinner; run the FIFO head anyway
		// rather than idling the machine (the holder may be queued on
		// another CPU and about to run).
		p = s.q.Pop()
	}
	return p
}

// OnQuantumExpire implements Policy: extend the slice while the process
// holds a lock, up to maxExtensions times.
func (s *SpinFlag) OnQuantumExpire(p *Process) sim.Duration {
	if len(p.held) > 0 && s.extensions[p.id] < maxExtensions {
		s.extensions[p.id]++
		return extension
	}
	delete(s.extensions, p.id)
	return 0
}

// OnExit implements Policy.
func (s *SpinFlag) OnExit(p *Process) { delete(s.extensions, p.id) }
