package experiments

import (
	"fmt"

	"procctl/internal/apps"
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
	o = o.withDefaults()
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
	s := NewSim(o, control)
	g := trace.NewGantt(s.K)
	a := s.LaunchNow(1, apps.PaperMatmul(), 12)
	b := s.LaunchNow(2, apps.PaperFFT(), 12)
	apps.Background(s.K, 2, 20*sim.Millisecond, 30*sim.Millisecond)
	s.Eng.Run(sim.Time(window))
	g.Close()
	s.K.Finalize()
	_, _ = a, b

	label := "no process control"
	if control {
		label = "process control on"
	}
	header := fmt.Sprintf("Policy %s (%s): matmul (A, 12 procs) + fft (B, 12 procs) + 2 background (*) on %d CPUs\n",
		s.K.Policy().Name(), label, s.K.NumCPU())
	return header + g.Render(0, sim.Time(window), 96)
}
