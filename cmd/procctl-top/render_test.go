package main

import (
	"os"
	"path/filepath"
	"testing"

	"procctl/internal/metrics"
	"procctl/internal/runtime/coordinator"
)

// knownSnapshot is a daemon registry's latency and convergence series
// after a fixed set of observations, as the metrics op serves them.
func knownSnapshot() *metrics.Snapshot {
	reg := metrics.NewRegistry()
	for i, stage := range []string{coordinator.StageSnapshot, coordinator.StageRecompute, coordinator.StageNotify, coordinator.StageTotal} {
		h := reg.Histogram(metrics.Name("coordinator_rebalance_latency_micros", "stage", stage), "", metrics.LatencyBuckets)
		for v := int64(1); v <= 300; v++ {
			h.Observe(v * int64(i+1) * 7 % 5000)
		}
	}
	for _, outcome := range []string{coordinator.ConvergeSettled, coordinator.ConvergeSuperseded, coordinator.ConvergeExpired} {
		h := reg.Histogram(metrics.Name("coordinator_convergence_latency_micros", "outcome", outcome), "", metrics.LatencyBuckets)
		if outcome == coordinator.ConvergeSettled {
			for v := int64(1); v <= 120; v++ {
				h.Observe(v * v)
			}
		}
	}
	reg.Gauge("coordinator_convergence_open_epochs", "").Set(2)
	return reg.Snapshot(1)
}

// emptySnapshot is a fresh daemon's: every series registered, none
// observed.
func emptySnapshot() *metrics.Snapshot {
	reg := metrics.NewRegistry()
	for _, stage := range []string{coordinator.StageSnapshot, coordinator.StageRecompute, coordinator.StageNotify, coordinator.StageTotal} {
		reg.Histogram(metrics.Name("coordinator_rebalance_latency_micros", "stage", stage), "", metrics.LatencyBuckets)
	}
	reg.Histogram(metrics.Name("coordinator_convergence_latency_micros", "outcome", coordinator.ConvergeSettled), "", metrics.LatencyBuckets)
	reg.Gauge("coordinator_convergence_open_epochs", "")
	return reg.Snapshot(1)
}

var knownStatus = coordinator.Status{
	Capacity: 8, ExternalLoad: 1, LeaseSeconds: 18,
	Apps: []coordinator.AppStatus{{Name: "fft", Procs: 8, Weight: 1, Target: 7, LeaseRemaining: 12}},
}

var knownEpochs = []coordinator.ConvergeInfo{
	{Epoch: 9, Members: 3, Outcome: "settled", LatencyMicros: 240, Straggler: "web", StragglerKind: "remote"},
	{Epoch: 8, Members: 2, Outcome: "superseded", LatencyMicros: 90, StragglerKind: "inproc"},
}

// TestRenderersMatchGolden pins the status and converge views' output for
// known observations, with data and on a fresh daemon, in
// testdata/{status,converge}.golden: the rows the daemon's status and
// converge replies used to carry, computed from the same series. Edit
// them only for an intended output change.
func TestRenderersMatchGolden(t *testing.T) {
	status := statusTable(&knownStatus, knownSnapshot()) + statusTable(&knownStatus, emptySnapshot())
	converge := convergeTable(knownEpochs, knownSnapshot()) + convergeTable(nil, emptySnapshot())
	for name, got := range map[string]string{"status": status, "converge": converge} {
		path := filepath.Join("testdata", name+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s view differs from %s:\n got:\n%s\nwant:\n%s", name, path, got, want)
		}
	}
}
