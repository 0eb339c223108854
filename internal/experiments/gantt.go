package experiments

import (
	"fmt"

	"procctl/internal/apps"
	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/trace"
)

// GanttDemo runs a short two-application contention scenario under the
// named scheduling policy (with optional process control) and renders
// the CPU timeline. It makes the policies' signatures visible at a
// glance: coscheduling shows vertical stripes, partitioning horizontal
// bands, plain timesharing confetti, and process control one steady
// band per application.
func GanttDemo(o Options, policy string, control bool, window sim.Duration) string {
	if window <= 0 {
		window = 3 * sim.Second
	}
	if policy != "" {
		names, factories := NamedPolicies()
		f, ok := factories[policy]
		if !ok {
			return fmt.Sprintf("unknown policy %q (have %v)\n", policy, names)
		}
		o.NewPolicy = f
	}
	var g *trace.Gantt
	k := DemoMix(o, control, window, func(k *kernel.Kernel) func() {
		g = trace.NewGantt(k)
		return g.Close
	})

	label := "no process control"
	if control {
		label = "process control on"
	}
	header := fmt.Sprintf("Policy %s (%s): matmul (A, 12 procs) + fft (B, 12 procs) + 2 background (*) on %d CPUs\n",
		k.Policy().Name(), label, k.NumCPU())
	return header + g.Render(0, sim.Time(window), 96)
}

// DemoMix runs the demo scenario of GanttDemo and procctl-trace record:
// matmul and fft with 12 processes each and two background processes,
// for window of virtual time. attach is called with the kernel before
// anything starts, to hook an observer to it; the function it returns,
// if not nil, is called when the window ends, before the kernel's final
// accounting.
func DemoMix(o Options, control bool, window sim.Duration, attach func(*kernel.Kernel) func()) *kernel.Kernel {
	s := NewSim(o, control)
	detach := attach(s.K)
	s.LaunchNow(1, apps.PaperMatmul(), 12)
	s.LaunchNow(2, apps.PaperFFT(), 12)
	apps.Background(s.K, 2, 20*sim.Millisecond, 30*sim.Millisecond)
	s.Eng.Run(sim.Time(window))
	if detach != nil {
		detach()
	}
	s.K.Finalize()
	return s.K
}
