package experiments

import (
	"bytes"
	"fmt"

	"procctl/internal/apps"
	"procctl/internal/ctrl"
	"procctl/internal/faultinject"
	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/trace"
)

// FaultsResult records the fault-recovery showcase: two controlled
// applications share the machine, one is crashed mid-critical-section,
// and the central server's lease machinery hands the dead application's
// processors to the survivor.
type FaultsResult struct {
	Seed  uint64
	Lease sim.Duration

	// CrashedAt is when the injected crash actually landed (the
	// injector waits for the victim to be inside a critical section).
	CrashedAt sim.Time
	// TargetBefore/TargetAfter are the survivor's processor targets
	// just before the crash and after recovery.
	TargetBefore int
	TargetAfter  int
	// RecoveredIn is how long after the crash the server reassigned the
	// victim's processors to the survivor. The contract asserted by the
	// regression tests: at most one lease (plus a scan interval).
	RecoveredIn sim.Duration

	// Fault and recovery counters at the end of the run, read from the
	// series.
	Crashes        int64
	LockCrashes    int64
	ForcedReleases int64
	LeaseExpiries  int64

	SurvivorElapsed sim.Duration

	// Snapshot is the full end-of-run metrics export; byte-identical
	// across same-seed runs (asserted by TestFaultsDeterministic).
	Snapshot string
}

// Faults runs the fault-injection showcase. The survivor (app 1, a long
// matmul) and the victim (app 2, the lock-heavy Figure 4 gauss) start
// together with 16 processes each and equipartition the Multimax at 8
// CPUs apiece. At 10 s the injector arms a crash that fires the moment
// a victim process is running inside its pivot-lock critical section:
// the kernel force-releases the abandoned lock (so the victim's peers
// can still be reaped cleanly), and the server — hearing no more polls —
// expires the victim's lease and rebalances. Deterministic per seed.
func Faults(o Options) *FaultsResult {
	o = o.withDefaults()
	s := NewSim(o, true)
	inj := faultinject.New(s.K, o.Seed+0x9e3779b97f4a7c15)

	survivor := s.LaunchNow(1, apps.Matmul(48, 15, sim.Second), 16)
	s.LaunchNow(2, apps.BigGauss(), 16)
	inj.CrashAppInLock(sim.Time(10*sim.Second), 2)

	res := &FaultsResult{Seed: o.Seed, Lease: s.Server.Lease()}
	full := s.K.NumCPU()
	count := func(name string) int64 { n, _ := s.K.Metrics().Value(name); return n }
	s.Eng.Every(50*sim.Millisecond, func() bool {
		if res.CrashedAt == 0 {
			res.TargetBefore = s.Server.Target(1)
			if count(faultinject.MetricLockCrashes) > 0 {
				res.CrashedAt = s.Eng.Now()
			}
			return true
		}
		if res.RecoveredIn == 0 && s.Server.Target(1) == full {
			res.RecoveredIn = s.Eng.Now().Sub(res.CrashedAt)
			res.TargetAfter = s.Server.Target(1) // read now: the app unregisters when it finishes
		}
		return res.RecoveredIn == 0 // stop sampling once recovered
	})

	ok := s.RunUntil(survivor.Done)
	s.mustFinish(ok, "faults survivor")

	// The forced-release total is derived at snapshot time: read it
	// from the snapshot.
	snap := s.K.MetricsSnapshot()
	res.Crashes = count(faultinject.MetricCrashes)
	res.LockCrashes = count(faultinject.MetricLockCrashes)
	res.ForcedReleases = snap.Get(kernel.MetricForcedReleases).Value
	res.LeaseExpiries = count(ctrl.MetricLeaseExpiries)
	res.SurvivorElapsed = survivor.Elapsed()
	var buf bytes.Buffer
	snap.WriteText(&buf)
	res.Snapshot = buf.String()
	return res
}

// Render prints the recovery timeline as a table.
func (r *FaultsResult) Render() string {
	t := trace.NewTable(
		fmt.Sprintf("Faults: app 2 crashed mid-critical-section (seed %d, lease %v)", r.Seed, r.Lease),
		"event", "value")
	t.Row("crash landed at", r.CrashedAt)
	t.Row("survivor target before crash", r.TargetBefore)
	t.Row("survivor target after recovery", r.TargetAfter)
	t.Row("recovered in", r.RecoveredIn)
	t.Row("processes crashed", r.Crashes)
	t.Row("locks force-released", r.ForcedReleases)
	t.Row("leases expired", r.LeaseExpiries)
	t.Row("survivor elapsed", r.SurvivorElapsed)
	return t.String()
}
