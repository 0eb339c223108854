package experiments

import (
	"bytes"
	"encoding/json"

	"procctl/internal/apps"
	"procctl/internal/metrics"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// MetricsResult is the full metrics snapshot of one short controlled
// run: every kernel, machine, threads, and central-server series at the
// virtual instant the run finished.
type MetricsResult struct {
	Snap *metrics.Snapshot
}

// MetricsDemo runs the determinism tests' two-application contended mix
// (oversubscribed machine, process control on) and returns the final
// metrics snapshot — a one-stop view of what the instrumentation
// records. Same seed, byte-identical Render and JSON output (asserted
// by TestMetricsSnapshotDeterministic).
func MetricsDemo(o Options) *MetricsResult {
	// Default to the determinism tests' contended setup: two CPUs under
	// eight processes, so quanta expire, locks are fought over, and the
	// counters all move.
	if o.Machine.NumCPU == 0 {
		o.Machine.NumCPU = 2
	}
	if o.Kernel.Quantum == 0 {
		o.Kernel.Quantum = 30 * sim.Millisecond
	}
	if o.ScanInterval == 0 {
		o.ScanInterval = sim.Second
	}
	if o.PollInterval == 0 {
		o.PollInterval = 2 * sim.Second
	}
	var snap *metrics.Snapshot
	runSim(simRun{o: o, control: true, apps: []launch{
		{wl: apps.Matmul(8, 2, 20*sim.Millisecond), procs: 4},
		{wl: apps.Matmul(6, 3, 15*sim.Millisecond), procs: 4},
	}, read: func(s *Sim, _ []*threads.App) { snap = s.K.MetricsSnapshot() }})
	return &MetricsResult{Snap: snap}
}

// Render prints the snapshot as the sorted text table.
func (r *MetricsResult) Render() string {
	var buf bytes.Buffer
	r.Snap.WriteText(&buf)
	return buf.String()
}

// JSON returns the snapshot as indented JSON.
func (r *MetricsResult) JSON() string {
	out, err := json.MarshalIndent(r.Snap, "", "  ")
	if err != nil {
		panic("experiments: marshaling metrics snapshot: " + err.Error())
	}
	return string(out)
}
