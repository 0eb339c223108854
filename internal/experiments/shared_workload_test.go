package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// A figure builds each DAG once and launches it from every run of its
// sweep, concurrent ones included. `make race` runs this test under the
// race detector: a write to the shared workload after build, or kernel
// state touched by two goroutines at once now that bodies perform their
// own zero-time requests, fails there.
func TestCustomSharesOneWorkloadAcrossConcurrentRuns(t *testing.T) {
	// parallelFor sizes itself by GOMAXPROCS; make sure the runs really
	// are concurrent, whatever the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	o := fastOpts()
	o.Seeds = 2
	procs := []int{2, 4, 20}
	builds := 0
	var shared *threads.Workload
	builder := func() *threads.Workload {
		builds++
		// Barriers, a lock and enough tasks that 4 runs overlap.
		shared = apps.Gauss(48, 4, 20*sim.Microsecond)
		return shared
	}
	got := Custom(o, builder, procs)
	if builds != 1 {
		t.Errorf("Custom built the workload %d times, want once per curve", builds)
	}

	// The same curve from fresh, unshared workloads, one run at a time.
	want := Fig3Curve{App: "gauss", Procs: procs}
	t1 := Solo(o, apps.Gauss(48, 4, 20*sim.Microsecond), 1, false)
	for _, p := range procs {
		var off, on []float64
		for si := 0; si < o.Seeds; si++ {
			oo := o
			oo.Seed = o.Seed + uint64(si)
			off = append(off, t1.Seconds()/Solo(oo, apps.Gauss(48, 4, 20*sim.Microsecond), p, false).Seconds())
			on = append(on, t1.Seconds()/Solo(oo, apps.Gauss(48, 4, 20*sim.Microsecond), p, true).Seconds())
		}
		want.Uncontrolled = append(want.Uncontrolled, mean(off))
		want.Controlled = append(want.Controlled, mean(on))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shared-workload curve differs from the unshared serial one:\n got  %+v\n want %+v", got, want)
	}

	// Launching left the workload as built.
	if err := shared.Validate(); err != nil {
		t.Error(err)
	}
	fresh := apps.Gauss(48, 4, 20*sim.Microsecond)
	if shared.Len() != fresh.Len() || shared.TotalWork() != fresh.TotalWork() || shared.CriticalPath() != fresh.CriticalPath() {
		t.Error("the shared workload changed while it was being run")
	}
}
