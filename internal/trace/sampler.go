// Package trace collects time series and summary statistics from a
// simulation and renders them as aligned text tables — the repository's
// stand-in for the paper's figures.
package trace

import (
	"procctl/internal/kernel"
	"procctl/internal/sim"
)

// Sample is one observation of system load.
type Sample struct {
	At           sim.Time
	PerApp       map[kernel.AppID]int // runnable+running processes per application
	Uncontrolled int
	Total        int
}

// Sampler periodically records how many runnable processes each
// application has — the measurement plotted in the paper's Figure 5.
type Sampler struct {
	k       *kernel.Kernel
	Samples []Sample
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

func (s *Sampler) take() {
	perApp, un := s.k.CountByApp()
	total := un
	for _, n := range perApp {
		total += n
	}
	s.Samples = append(s.Samples, Sample{
		At:           s.k.Now(),
		PerApp:       perApp,
		Uncontrolled: un,
		Total:        total,
	})
}
