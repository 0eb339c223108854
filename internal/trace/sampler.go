// Package trace collects time series and summary statistics from a
// simulation and renders them as aligned text tables — the repository's
// stand-in for the paper's figures.
package trace

import (
	"procctl/internal/kernel"
	"procctl/internal/sim"
)

// Sample is one observation of system load: how many processes of
// each application were runnable or running At that instant.
type Sample struct {
	At sim.Time
	// counts is indexed by AppID, from AppNone (the uncontrolled
	// processes) to the largest AppID spawned so far
	// (kernel.CountByApp); it is a window on the sampler's array.
	counts []int
}

// App returns application id's runnable processes, or with AppNone the
// uncontrolled ones; zero for an application not spawned yet.
func (s Sample) App(id kernel.AppID) int {
	if id < 0 || int(id) >= len(s.counts) {
		return 0
	}
	return s.counts[id]
}

// Total returns the runnable processes of every application and the
// uncontrolled ones together.
func (s Sample) Total() int {
	total := 0
	for _, n := range s.counts {
		total += n
	}
	return total
}

// Sampler periodically records how many runnable processes each
// application has — the measurement plotted in the paper's Figure 5.
type Sampler struct {
	k       *kernel.Kernel
	Samples []Sample
	counts  []int // every sample's counts, back to back
	cancel  func()
}

// NewSampler installs a sampler on k's engine with the given period.
func NewSampler(k *kernel.Kernel, period sim.Duration) *Sampler {
	s := &Sampler{k: k}
	s.take() // sample at t=0
	s.cancel = k.Engine().Every(period, func() bool {
		s.take()
		return true
	})
	return s
}

// Stop halts future sampling.
func (s *Sampler) Stop() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

// take appends a sample whose counts go at the end of s.counts. A
// sample's window stays valid when s.counts moves to a larger array:
// the old one is never written again.
func (s *Sampler) take() {
	n := len(s.counts)
	s.counts = s.k.CountByApp(s.counts)
	end := len(s.counts)
	s.Samples = append(s.Samples, Sample{At: s.k.Now(), counts: s.counts[n:end:end]})
}
