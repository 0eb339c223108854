package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// A figure builds each DAG once and launches it from every run of its
// sweep, concurrent ones included. `make race` runs this test under the
// race detector: a write to the shared workload after build, or kernel
// state touched by two goroutines at once now that bodies perform their
// own zero-time requests, fails there.
func TestCustomSharesOneWorkloadAcrossConcurrentRuns(t *testing.T) {
	// fanOut sizes itself by GOMAXPROCS; make sure the runs really
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

// retireHash is the retirement-order hash of apps' retireSHA256: the
// task count, lock count and total work, then every task in the order
// one worker on one processor retires it.
func retireHash(t *testing.T, wl *threads.Workload) string {
	h := sha256.New()
	put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	put(int64(wl.Len()))
	put(int64(wl.NumLocks()))
	put(int64(wl.TotalWork()))
	eng := sim.NewEngine(1)
	k := kernel.New(eng, machine.New(machine.Config{NumCPU: 1}), kernel.NewTimeshare(), kernel.Config{Quantum: sim.Second})
	a := threads.Launch(k, 1, wl, threads.Config{Procs: 1, OnTaskDone: func(id threads.TaskID) { put(int64(id)) }})
	eng.RunUntilIdle()
	if !a.Done() {
		t.Fatalf("%s did not finish", wl.Name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mixLaunches builds and seals the mix's DAGs on concurrent goroutines
// (`make race` runs this test under the race detector). Each must be the
// DAG a serial build makes: same retirement order, already sealed.
func TestMixBuildsMatchSerialBuilds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mix := DefaultFig4Mix()
	ls := mixLaunches(mix)
	for i, arr := range mix {
		l, serial := ls[i], apps.ByName(arr.App)
		if l.procs != arr.Procs || l.at != arr.At || l.wl.Name != serial.Name {
			t.Errorf("launch %d: %s with %d procs at %v, want %s with %d at %v", i, l.wl.Name, l.procs, l.at, serial.Name, arr.Procs, arr.At)
		}
		if panicOf(func() { l.wl.Add(sim.Millisecond) }) == nil {
			t.Errorf("%s: not sealed by mixLaunches", arr.App)
		}
		if got, want := retireHash(t, l.wl), retireHash(t, serial); got != want {
			t.Errorf("%s built in parallel retires as %s, built serially as %s", arr.App, got, want)
		}
	}
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}
