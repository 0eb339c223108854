package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/ctrl"
	"procctl/internal/faultinject"
	"procctl/internal/kernel"
	"procctl/internal/sim"
)

func TestFaultsRecoversWithinOneLease(t *testing.T) {
	r := Faults(Options{Seed: 1})
	if r.LockCrashes != 1 {
		t.Fatalf("LockCrashes = %d, want exactly 1", r.LockCrashes)
	}
	if r.CrashedAt == 0 {
		t.Fatal("crash never landed")
	}
	if r.ForcedReleases < 1 {
		t.Errorf("ForcedReleases = %d, want >= 1 (victim died holding the pivot lock)", r.ForcedReleases)
	}
	if r.LeaseExpiries != 1 {
		t.Errorf("LeaseExpiries = %d, want 1", r.LeaseExpiries)
	}
	if r.TargetBefore != 8 {
		t.Errorf("survivor target before crash = %d, want the equipartition 8", r.TargetBefore)
	}
	if r.TargetAfter != 16 {
		t.Errorf("survivor target after recovery = %d, want the full machine", r.TargetAfter)
	}
	// The headline contract: the survivor reached the full machine within
	// one lease, plus one server scan and the 50 ms sampling grain, of
	// the crash.
	if slack := ctrl.DefaultScanInterval + 100*sim.Millisecond; r.RecoveredIn == 0 || r.RecoveredIn > r.Lease+slack {
		t.Errorf("recovery took %v, want within one lease (%v)", r.RecoveredIn, r.Lease)
	}
	for _, name := range []string{
		kernel.MetricKills,
		kernel.MetricForcedReleases,
		faultinject.MetricLockCrashes,
		ctrl.MetricLeaseExpiries,
	} {
		if !strings.Contains(r.Snapshot, name) {
			t.Errorf("snapshot is missing %s", name)
		}
	}
}

// TestFaultsCountsAreTheSeries checks that the showcase's counts are its
// series: every count the result reports moved in the run and equals
// the series in the run's own end-of-run export, whether the fault
// injector registered it or the kernel or the server derived it.
func TestFaultsCountsAreTheSeries(t *testing.T) {
	r := Faults(Options{Seed: 1})
	series := map[string]int64{}
	for _, line := range strings.Split(r.Snapshot, "\n") {
		var name string
		var v int64
		if n, _ := fmt.Sscan(line, &name, &v); n == 2 {
			series[name] = v
		}
	}
	for name, got := range map[string]int64{
		faultinject.MetricCrashes:     r.Crashes,
		faultinject.MetricLockCrashes: r.LockCrashes,
		kernel.MetricForcedReleases:   r.ForcedReleases,
		ctrl.MetricLeaseExpiries:      r.LeaseExpiries,
	} {
		if got <= 0 || got != series[name] {
			t.Errorf("result reports %d for %s, the series reads %d; want equal and > 0", got, name, series[name])
		}
	}
	// The server's own counts: every poll it served and every scan it ran.
	for _, name := range []string{ctrl.MetricPolls, ctrl.MetricScans} {
		if series[name] <= 0 {
			t.Errorf("%s = %d after a 60 s controlled run", name, series[name])
		}
	}
}

func TestFaultsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full faults runs in -short mode")
	}
	a, b := Faults(Options{Seed: 7}), Faults(Options{Seed: 7})
	if a.Snapshot != b.Snapshot {
		t.Fatal("same-seed faults runs produced different metrics snapshots")
	}
	if a.CrashedAt != b.CrashedAt || a.RecoveredIn != b.RecoveredIn {
		t.Fatalf("same-seed timelines diverged: crash %v/%v recovery %v/%v",
			a.CrashedAt, b.CrashedAt, a.RecoveredIn, b.RecoveredIn)
	}
	c := Faults(Options{Seed: 8})
	if c.Snapshot == a.Snapshot {
		t.Error("different seeds produced identical snapshots (injector RNG not wired to seed?)")
	}
}

// faultsSeed1GoldenSHA256 pins what `procctl-sim faults` prints at seed
// 1 (minus its wall-clock footer) together with the run's full metrics
// snapshot. The Fig4 trace golden never kills or force-releases; this
// one does, so a change to the kernel's request path that shifted a
// crash, a forced release or the lease recovery by one microsecond
// lands here. Recorded before zero-time requests moved onto the body
// goroutine.
const faultsSeed1GoldenSHA256 = "9d28c79a136702c12ed2de8836653fc483da7b7adba8be2da64139255fd1d33c"

func TestFaultsSeed1Golden(t *testing.T) {
	r := Faults(Options{Seed: 1})
	sum := sha256.Sum256([]byte(r.Render() + "\n" + r.Snapshot))
	if got := hex.EncodeToString(sum[:]); got != faultsSeed1GoldenSHA256 {
		t.Fatalf("faults showcase drifted from the golden:\n  got  %s\n  want %s\n%s", got, faultsSeed1GoldenSHA256, r.Render())
	}
}

// stalledPastLease runs two 16-process matmuls on the 16-CPU machine and
// freezes app 2 for 30 s from t = 5 s — longer than the lease, so with
// expiry on the server forgets it while its processes are still alive.
// It reports when each application finished (0: not within the horizon)
// and how many leases lapsed.
func stalledPastLease(t *testing.T, lease sim.Duration) (stalled, other sim.Duration, expiries int64) {
	t.Helper()
	s := NewSim(Options{Seed: 1}, true)
	s.Server.SetLease(lease)
	a1 := s.LaunchNow(1, apps.Matmul(48, 15, sim.Second), 16)
	a2 := s.LaunchNow(2, apps.Matmul(48, 15, sim.Second), 16)
	faultinject.New(s.K, 1).StallApp(sim.Time(5*sim.Second), 2, 30*sim.Second)
	s.RunUntil(func() bool { return a1.Done() && a2.Done() })
	if a2.Done() {
		stalled = a2.Elapsed()
	}
	if a1.Done() {
		other = a1.Elapsed()
	}
	expiries, _ = s.K.Metrics().Value(ctrl.MetricLeaseExpiries)
	return stalled, other, expiries
}

// TestStalledAppIsReadmittedAfterLeaseExpiry: an application that was
// only stalled, not dead, when its lease lapsed must get back in at its
// next poll. Before the server re-admitted unknown-but-alive pollers it
// answered 0, the application suspended itself down to one process, its
// processes counted as uncontrollable load against everyone else, and
// this run never finished.
func TestStalledAppIsReadmittedAfterLeaseExpiry(t *testing.T) {
	noLease, _, _ := stalledPastLease(t, 0)
	stalled, other, expiries := stalledPastLease(t, ctrl.DefaultLease)
	if expiries != 1 {
		t.Fatalf("LeaseExpiries = %d, want 1 (the 30 s stall outlasts the %v lease)", expiries, ctrl.DefaultLease)
	}
	if noLease == 0 || other == 0 {
		t.Fatalf("a run the fix does not touch did not finish: no-lease %v, unstalled app %v", noLease, other)
	}
	if stalled == 0 {
		t.Fatal("the stalled application never finished: it was not re-admitted after its lease lapsed")
	}
	if limit := noLease + noLease/10; stalled > limit {
		t.Errorf("stalled application finished in %v, want within 10%% of the %v it takes with expiry off", stalled, noLease)
	}
}
