package experiments

import (
	"procctl/internal/apps"
	"procctl/internal/kernel"
	"procctl/internal/sim"
)

// DemoMix runs the scenario procctl-trace record traces: matmul and fft
// with 12 processes each and two background processes, for window of
// virtual time, under o's policy. attach is called with the kernel
// before anything starts, to hook an observer to it; the kernel's final
// accounting runs when the window ends.
func DemoMix(o Options, control bool, window sim.Duration, attach func(*kernel.Kernel)) {
	s := NewSim(o, control)
	attach(s.K)
	s.LaunchNow(1, apps.PaperMatmul(), 12)
	s.LaunchNow(2, apps.PaperFFT(), 12)
	apps.Background(s.K, 2, 20*sim.Millisecond, 30*sim.Millisecond)
	s.Eng.Run(sim.Time(window))
	s.K.Finalize()
}
