package experiments

import (
	"fmt"
	"strings"

	"procctl/internal/apps"
	"procctl/internal/metrics"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// LatencyResult is the ABL-LATENCY experiment: per-task queueing-delay
// distributions for an overloaded application with and without process
// control. It quantifies the paper's Section 2 observation that
// "unscheduled processes are placed on a FIFO queue, and the more
// unscheduled processes there are, the longer it takes for a preempted
// process to get to the front of the queue and be rescheduled" — which
// surfaces to the application as long task waits.
type LatencyResult struct {
	Procs int
	// Off and On are histogram series of the task ready→start wait in
	// microseconds on metrics.LatencyBuckets: the original package, and
	// the same with process control.
	Off *metrics.Metric
	On  *metrics.Metric
}

// Latency runs the overloaded matmul (24 processes by default) with
// latency recording, control off and on.
func Latency(o Options, procs int) *LatencyResult {
	o = o.withDefaults()
	if procs <= 0 {
		procs = 24
	}
	mm := launch{wl: apps.PaperMatmul(), procs: procs, latency: true}
	var waits [2][]sim.Duration
	runs := make([]simRun, 2)
	for i := range runs {
		runs[i] = simRun{o: o, control: i == 1, apps: []launch{mm}, read: func(_ *Sim, apps []*threads.App) {
			waits[i], _ = apps[0].LatencyStats()
		}}
	}
	fanOut(runs, simRun.procs, runSim)
	reg := metrics.NewRegistry()
	names := [2]string{
		metrics.Name("task_wait_micros", "control", "off"),
		metrics.Name("task_wait_micros", "control", "on"),
	}
	for i, wait := range waits {
		h := reg.Histogram(names[i], "task wait, ready to dequeued", metrics.LatencyBuckets)
		for _, w := range wait {
			h.Observe(int64(w))
		}
	}
	snap := reg.Snapshot(0)
	return &LatencyResult{Procs: procs, Off: snap.Get(names[0]), On: snap.Get(names[1])}
}

// Render prints the two distributions.
func (r *LatencyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Task queueing delay (ready → dequeued), matmul with %d processes on 16 CPUs\n", r.Procs)
	fmt.Fprintf(&b, "  original:   %s\n", waitSummary(r.Off))
	fmt.Fprintf(&b, "  controlled: %s\n", waitSummary(r.On))
	b.WriteString("\noriginal package, wait distribution:\n")
	b.WriteString(waitBars(r.Off, 40))
	b.WriteString("\nwith process control:\n")
	b.WriteString(waitBars(r.On, 40))
	return b.String()
}

// waitSummary is one line of count, mean and quantiles; the quantiles
// are the histogram's estimates, exact to within a bucket (29 % here).
func waitSummary(m *metrics.Metric) string {
	if m.Count == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v", m.Count, sim.Duration(m.Sum/m.Count),
		sim.Duration(m.Quantile(500)), sim.Duration(m.Quantile(950)), sim.Duration(m.Quantile(990)))
}

// waitBars renders the non-empty buckets, one row each, labelled with
// the bucket's upper bound and scaled to the fullest.
func waitBars(m *metrics.Metric, width int) string {
	var peak, prev int64
	for _, cum := range m.Buckets {
		peak, prev = max(peak, cum-prev), cum
	}
	if peak == 0 {
		return "empty\n"
	}
	var b strings.Builder
	prev = 0
	for i, cum := range m.Buckets {
		n := cum - prev
		prev = cum
		if n == 0 {
			continue
		}
		label := "+Inf"
		if i < len(m.Bounds) {
			label = sim.Duration(m.Bounds[i]).String()
		}
		fmt.Fprintf(&b, "%10s |%-*s %d\n", label, width, strings.Repeat("#", int(n*int64(width)/peak)), n)
	}
	return b.String()
}
