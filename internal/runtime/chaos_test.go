// Chaos suite: the runtime layers under injected failure. Clients hang,
// clients die, the daemon restarts mid-traffic, and the simulator runs
// seeded fault storms — after each, the system must converge: targets
// re-sum to capacity, survivors get the reclaimed processors, no
// goroutines leak, and same-seed simulated runs stay byte-identical.
package runtime_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"procctl/internal/apps"
	"procctl/internal/ctrl"
	"procctl/internal/faultinject"
	"procctl/internal/flight"
	"procctl/internal/journal"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/metrics"
	"procctl/internal/runtime/coordinator"
	"procctl/internal/runtime/pool"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// chaosLease is the shortened lease the wall-clock tests run under.
const (
	chaosLease = 300 * time.Millisecond
	chaosSweep = 50 * time.Millisecond
)

// fastDrive returns DriveOptions scaled down for tests.
func fastDrive() coordinator.DriveOptions {
	return coordinator.DriveOptions{
		Interval:   50 * time.Millisecond,
		Grace:      10 * time.Second, // hold the last target; decay is tested elsewhere
		BackoffMin: 20 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
	}
}

// startDaemon runs a coordinator daemon on sock and returns its
// coordinator for state assertions. Callers own srv.Close.
func startDaemon(t *testing.T, sock string, capacity int, cfg coordinator.ServerConfig) (*coordinator.Coordinator, *coordinator.Server) {
	t.Helper()
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	coord := coordinator.New(capacity)
	srv := coordinator.NewServerWith(coord, ln, cfg)
	go srv.Serve()
	return coord, srv
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// guardGoroutines fails the test if the goroutine count has not
// returned to its starting level once all cleanups have run. Register
// it first: t.Cleanup is LIFO, so the guard then runs last.
func guardGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d at start, %d after cleanup\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	})
}

// sumTargets re-sums the coordinator's target table.
func sumTargets(coord *coordinator.Coordinator) int {
	n := 0
	for _, v := range coord.Targets() {
		n += v
	}
	return n
}

// TestChaosHungAndKilledClientsReclaimed runs three members — one
// healthy, one whose process dies (connection drops), one hung
// (connection open, never speaks again) — and asserts both failures'
// processors flow back to the survivor: the kill immediately, the hang
// within one lease.
func TestChaosHungAndKilledClientsReclaimed(t *testing.T) {
	guardGoroutines(t)
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	coord, srv := startDaemon(t, sock, 8, coordinator.ServerConfig{Lease: chaosLease, SweepInterval: chaosSweep})
	t.Cleanup(func() { srv.Close() })

	healthy, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	p := pool.New(pool.Config{Name: "healthy", Workers: 8})
	drv, err := healthy.DriveWith("healthy", 8, p, fastDrive())
	if err != nil {
		t.Fatal(err)
	}

	hung, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hung.Close() })
	if _, err := hung.Register("hung", 8); err != nil {
		t.Fatal(err)
	}
	killed, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := killed.Register("killed", 8); err != nil {
		t.Fatal(err)
	}
	reclaimStart := time.Now() // both failures are "in progress" from here

	waitFor(t, 3*time.Second, func() bool {
		return len(coord.Members()) == 3 && sumTargets(coord) == 8
	}, "three members never split the machine")

	// The killed client's process dies: its connection drops and the
	// daemon must unregister it on the spot, no lease needed.
	killed.Close()
	waitFor(t, 3*time.Second, func() bool { return len(coord.Members()) == 2 },
		"killed client never unregistered on connection drop")

	// The hung client stays connected but silent; only the lease sweep
	// can reclaim it. The survivor must end up with the whole machine.
	waitFor(t, 3*time.Second, func() bool {
		m := coord.Members()
		return len(m) == 1 && m[0] == "healthy" && p.Target() == 8
	}, "hung client's processors never reclaimed by the lease sweep")
	reclaimed := time.Since(reclaimStart)

	// "Within one lease", with wall-clock slack for sweep cadence and a
	// loaded CI machine. The tight deterministic bound lives in the
	// simulator's fault tests; this guards against order-of-magnitude
	// regressions (e.g. waiting for a read deadline instead of the sweep).
	if limit := chaosLease + time.Second; reclaimed > limit {
		t.Errorf("capacity reclaimed after %v, want within %v", reclaimed, limit)
	}
	if v, ok := coord.Metrics().Value("coordinator_lease_expiries_total"); !ok || v < 1 {
		t.Errorf("coordinator_lease_expiries_total = %d, want >= 1", v)
	}
	if got := sumTargets(coord); got != 8 {
		t.Errorf("targets sum to %d after recovery, want the full capacity 8", got)
	}

	drv.Stop()
	p.Close()
	p.Wait()
}

// TestChaosDaemonRestartMidTraffic kills and restarts the daemon while
// two pools are executing a steady stream of tasks. Both drivers must
// ride through it — degraded while the daemon is down, transparently
// re-registered after it returns — without user code noticing. The
// restarted daemon has no journal: it counts epochs from 1 again, far
// below what the pools last applied, and decides a different split,
// which the pools must take up rather than refuse as old.
func TestChaosDaemonRestartMidTraffic(t *testing.T) {
	guardGoroutines(t)
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	coord1, srv1 := startDaemon(t, sock, 8, coordinator.ServerConfig{})

	stopTraffic := make(chan struct{})
	t.Cleanup(func() { close(stopTraffic) })
	newApp := func(name string) (*pool.Pool, *coordinator.Driver) {
		c, err := coordinator.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		p := pool.New(pool.Config{Name: name, Workers: 8})
		drv, err := c.DriveWith(name, 8, p, fastDrive())
		if err != nil {
			t.Fatal(err)
		}
		go func() { // steady traffic: the user code that must not notice
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				p.Submit(func() { time.Sleep(time.Millisecond) })
				time.Sleep(2 * time.Millisecond)
			}
		}()
		return p, drv
	}
	pa, da := newApp("alpha")
	pb, db := newApp("beta")

	waitFor(t, 3*time.Second, func() bool { return pa.Target() == 4 && pb.Target() == 4 },
		"two members never settled on the 4/4 split")
	// Run the epoch count up, and wait until both pools have applied it.
	for i := 0; i < 20; i++ {
		coord1.Rebalance()
	}
	last := uint64(coord1.Rebalances())
	waitFor(t, 3*time.Second, func() bool { return da.Applied() == last && db.Applied() == last },
		"drivers never applied the last epoch before the outage")

	// Daemon dies mid-traffic.
	srv1.Close()
	waitFor(t, 3*time.Second, func() bool { return da.Stats().Degraded && db.Stats().Degraded },
		"drivers never noticed the daemon dying")
	doneAtOutage := pa.Stats().Completed + pb.Stats().Completed

	// Daemon restarts on the same socket with an empty member table and
	// fewer processors to divide.
	coord2, srv2 := startDaemon(t, sock, 6, coordinator.ServerConfig{})
	t.Cleanup(func() { srv2.Close() })

	waitFor(t, 5*time.Second, func() bool {
		sa, sb := da.Stats(), db.Stats()
		return sa.Reconnects >= 1 && sb.Reconnects >= 1 && !sa.Degraded && !sb.Degraded &&
			len(coord2.Members()) == 2
	}, "drivers never re-registered with the restarted daemon")
	waitFor(t, 3*time.Second, func() bool {
		return pa.Target() == 3 && pb.Target() == 3 && sumTargets(coord2) == 6
	}, "pools never took up the restarted daemon's 3/3 split")

	// Work kept flowing across the outage and after recovery.
	waitFor(t, 3*time.Second, func() bool {
		return pa.Stats().Completed+pb.Stats().Completed > doneAtOutage
	}, "pools stopped executing tasks across the daemon restart")

	da.Stop()
	db.Stop()
	pa.Close()
	pb.Close()
	pa.Wait()
	pb.Wait()
}

// TestChaosFlightRecorderTellsTheStory drives a membership failure and
// then reads the daemon's flight recorder over the events op: the ring
// must contain the registrations, the lease expiry, and the target
// movement — a post-mortem of the chaos with no tracing pre-arranged.
func TestChaosFlightRecorderTellsTheStory(t *testing.T) {
	guardGoroutines(t)
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	coord, srv := startDaemon(t, sock, 8, coordinator.ServerConfig{Lease: chaosLease, SweepInterval: chaosSweep})
	t.Cleanup(func() { srv.Close() })

	healthy, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	p := pool.New(pool.Config{Name: "survivor", Workers: 8})
	drv, err := healthy.DriveWith("survivor", 8, p, fastDrive())
	if err != nil {
		t.Fatal(err)
	}

	hung, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hung.Close() })
	if _, err := hung.Register("hangs", 8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return len(coord.Members()) == 2 },
		"both members never registered")
	// The hung client goes silent; the sweep must expire it.
	waitFor(t, 3*time.Second, func() bool { return len(coord.Members()) == 1 },
		"hung member never expired")
	waitFor(t, 3*time.Second, func() bool { return p.Target() == 8 },
		"survivor never reclaimed the machine")

	evs, err := healthy.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	survivorTargets := []int64{}
	for _, ev := range evs {
		counts[ev.Kind]++
		if ev.Kind == flight.KindTarget && ev.App == "survivor" {
			survivorTargets = append(survivorTargets, ev.A)
		}
	}
	if counts[flight.KindRegister] < 2 {
		t.Errorf("%d register events, want >= 2", counts[flight.KindRegister])
	}
	if counts[flight.KindLeaseExpiry] < 1 {
		t.Errorf("no lease-expiry event after the hung client was swept: %v", counts)
	}
	if counts[flight.KindRebalance] < 2 {
		t.Errorf("%d rebalance spans, want one per membership change at least", counts[flight.KindRebalance])
	}
	// The survivor's recorded target history must end at the full
	// machine, passing through the 4/4 split.
	if n := len(survivorTargets); n < 2 || survivorTargets[n-1] != 8 {
		t.Errorf("survivor target history %v, want ... -> 8", survivorTargets)
	}
	saw4 := false
	for _, v := range survivorTargets {
		if v == 4 {
			saw4 = true
		}
	}
	if !saw4 {
		t.Errorf("survivor target history %v never shows the 4/4 split", survivorTargets)
	}

	// The daemon's metrics carry the spans of all that churn.
	snap, err := healthy.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m := snap.Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", coordinator.StageTotal)); m == nil || m.Count == 0 {
		t.Error("metrics carry no rebalance-latency span after all that churn")
	}

	drv.Stop()
	p.Close()
	p.Wait()
}

// openEpochs reads the daemon's open-epoch gauge through the metrics op.
func openEpochs(t *testing.T, c *coordinator.Client) int64 {
	t.Helper()
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return snap.Get("coordinator_convergence_open_epochs").Value
}

// buildProcctld compiles the real daemon binary once per test run.
func buildProcctld(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "procctld")
	cmd := exec.Command("go", "build", "-o", bin, "procctl/cmd/procctld")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building procctld: %v\n%s", err, out)
	}
	return bin
}

// startProcctld launches the daemon binary and waits for its socket.
func startProcctld(t *testing.T, bin, sock, jdir string, extra ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{
		"-listen", "unix:" + sock,
		"-capacity", "8",
		"-journal-dir", jdir,
		"-fsync-every", "1", // every transition durable before it is acked
	}, extra...)...)
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	waitFor(t, 5*time.Second, func() bool {
		c, err := coordinator.Dial("unix", sock)
		if err != nil {
			return false
		}
		c.Close()
		return true
	}, "daemon socket never came up")
	return cmd
}

// TestChaosSIGKILLRecovery is the durability drill: a real procctld is
// killed with SIGKILL mid-traffic and restarted on its journal. The
// restarted daemon must serve the full registry — names, process
// counts, weights, and last pushed targets, byte-for-byte what the
// journal held at the kill — before any client re-registers.
func TestChaosSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and execs the real daemon")
	}
	bin := buildProcctld(t)
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	jdir := filepath.Join(t.TempDir(), "journal")

	daemon1 := startProcctld(t, bin, sock, jdir)
	c, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Registration order matches name order on purpose: the restart
	// re-seats members sorted by name, and allocation hands out
	// processors in member order, so any other order would make the
	// boot rebalance legitimately shift targets (see DESIGN.md).
	if _, err := c.Register("batch", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterWeighted("web", 6, 2); err != nil {
		t.Fatal(err)
	}
	// Churn so the journal holds more than the initial transitions.
	for i := 0; i < 5; i++ {
		if err := c.SetExternalLoad(i % 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetExternalLoad(2); err != nil {
		t.Fatal(err)
	}

	// What the journal can prove at the moment of death (-fsync-every 1:
	// every acked op is already on disk).
	pre, err := journal.Recover(jdir)
	if err != nil {
		t.Fatal(err)
	}
	preJSON, err := json.Marshal(pre.State.Members)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre.State.Members) != 2 {
		t.Fatalf("pre-kill journal holds %d members, want 2", len(pre.State.Members))
	}

	if err := daemon1.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	daemon1.Wait()

	startProcctld(t, bin, sock, jdir)
	c2, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The registry must be served before any client re-registers.
	st, err := c2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExternalLoad != 2 {
		t.Errorf("external load after recovery = %d, want 2", st.ExternalLoad)
	}
	byName := map[string]coordinator.AppStatus{}
	for _, a := range st.Apps {
		byName[a.Name] = a
	}
	for _, m := range pre.State.Members {
		got, ok := byName[m.Name]
		if !ok || got.Procs != m.Procs || got.Weight != m.Weight || got.Target != m.Target {
			t.Errorf("recovered %s = %+v, journal says procs=%d weight=%d target=%d",
				m.Name, got, m.Procs, m.Weight, m.Target)
		}
	}

	// Zero re-registrations: the recovery came from the journal alone.
	snap, err := c2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m := snap.Get(metrics.Name("coordinator_rpcs_total", "op", coordinator.OpRegister)); m != nil && m.Value != 0 {
		t.Errorf("restarted daemon served %d register RPCs before the check", m.Value)
	}

	// And the journal itself replays to the identical membership.
	post, err := journal.Recover(jdir)
	if err != nil {
		t.Fatal(err)
	}
	postJSON, err := json.Marshal(post.State.Members)
	if err != nil {
		t.Fatal(err)
	}
	if string(preJSON) != string(postJSON) {
		t.Errorf("registry changed across SIGKILL\n pre  %s\n post %s", preJSON, postJSON)
	}
}

// slowMember is an in-process member whose re-target takes real time:
// the rebalance fan-out sleeps in SetTarget, so an admitted
// registration occupies its admission slot long enough for a
// simultaneous storm to collide with the limiter.
type slowMember struct {
	name   string
	delay  time.Duration
	target atomic.Int64
}

func (s *slowMember) Name() string { return s.name }
func (s *slowMember) Workers() int { return 8 }
func (s *slowMember) SetTarget(n int) {
	time.Sleep(s.delay)
	s.target.Store(int64(n))
}

// TestChaosRegisterStormShedsAndConverges fires a burst of simultaneous
// registrations at a daemon whose admission limiter is deliberately
// tiny while a resident member makes each admitted registration's
// rebalance slow. The limiter must shed some of the burst with
// retryable busy replies, every shed client must retry its way in, and
// the fleet must end converged — targets re-summed to capacity — with
// no goroutine leaked by the retry machinery.
func TestChaosRegisterStormShedsAndConverges(t *testing.T) {
	guardGoroutines(t)
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	coord, srv := startDaemon(t, sock, 16, coordinator.ServerConfig{AdmitLimit: 2})
	t.Cleanup(func() { srv.Close() })

	// Already-resident slow member: most registrations change its
	// target, so the fan-out holds the admission slot for ~delay.
	coord.Register(&slowMember{name: "resident", delay: 20 * time.Millisecond})

	const storm = 12
	type launched struct {
		drv *coordinator.Driver
		p   *pool.Pool
		err error
	}
	start := make(chan struct{})
	results := make(chan launched, storm)
	for i := 0; i < storm; i++ {
		go func(i int) {
			c, err := coordinator.Dial("unix", sock)
			if err != nil {
				results <- launched{err: err}
				return
			}
			t.Cleanup(func() { c.Close() })
			p := pool.New(pool.Config{Name: fmt.Sprintf("storm%02d", i), Workers: 4})
			opts := fastDrive()
			opts.AdmitPatience = 25 * time.Second
			<-start
			drv, err := c.DriveWith(fmt.Sprintf("storm%02d", i), 4, p, opts)
			results <- launched{drv: drv, p: p, err: err}
		}(i)
	}
	close(start) // the barrier: the whole storm registers at once

	drivers := make([]launched, 0, storm)
	for i := 0; i < storm; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("storm client never admitted: %v", r.err)
			}
			drivers = append(drivers, r)
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d/%d storm clients registered", i, storm)
		}
	}

	// Everyone is in, and the burst really did trip the limiter.
	waitFor(t, 10*time.Second, func() bool {
		return len(coord.Members()) == storm+1 && sumTargets(coord) == 16
	}, "storm fleet never converged to the full capacity")
	shedName := metrics.Name("coordinator_admission_shed_total", "reason", "register")
	if v, ok := coord.Metrics().Value(shedName); !ok || v < 1 {
		t.Errorf("%s = %d, want >= 1: the storm never collided with the limiter", shedName, v)
	}

	for _, r := range drivers {
		r.drv.Stop()
		r.p.Close()
		r.p.Wait()
	}
}

// TestChaosBatchedRegisterStormCoalesces points a registration burst at
// a daemon running the epoch-batched recompute: the storm must land in
// far fewer rebalance epochs than registrations, with the coalescing
// visible in the batch counters, and the fleet still converges.
func TestChaosBatchedRegisterStormCoalesces(t *testing.T) {
	guardGoroutines(t)
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	coord, srv := startDaemon(t, sock, 24, coordinator.ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	stopBatch := coord.StartBatching(100 * time.Millisecond)
	t.Cleanup(stopBatch)

	const storm = 24
	start := make(chan struct{})
	errs := make(chan error, storm)
	for i := 0; i < storm; i++ {
		go func(i int) {
			c, err := coordinator.Dial("unix", sock)
			if err != nil {
				errs <- err
				return
			}
			t.Cleanup(func() { c.Close() })
			<-start
			_, err = c.Register(fmt.Sprintf("burst%02d", i), 4)
			errs <- err
		}(i)
	}
	close(start)
	for i := 0; i < storm; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 5*time.Second, func() bool { return len(coord.Members()) == storm },
		"batched storm never fully registered")
	waitFor(t, 5*time.Second, func() bool { return sumTargets(coord) == 24 },
		"batched flush never re-targeted the fleet to capacity")
	if reb := coord.Rebalances(); reb >= storm {
		t.Errorf("rebalances = %d for %d batched registrations; the storm did not coalesce", reb, storm)
	}
	if v, ok := coord.Metrics().Value("coordinator_batch_coalesced_total"); !ok || v < 1 {
		t.Errorf("coordinator_batch_coalesced_total = %d, want >= 1", v)
	}
}

// TestChaosSimFaultStormDeterministic throws every simulated fault at
// once — a crash inside a critical section, a stalled app, a lossy
// controller channel, lease expiry — and requires the whole run to be a
// pure function of the seed: two same-seed runs must produce
// byte-identical metrics snapshots, and a different seed must not.
func TestChaosSimFaultStormDeterministic(t *testing.T) {
	run := func(seed uint64) string {
		eng := sim.NewEngine(seed)
		mac := machine.New(machine.Config{NumCPU: 8})
		k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.DefaultConfig())
		srv := ctrl.NewServer(k, 0)
		srv.SetLease(5 * sim.Second)
		inj := faultinject.New(k, seed+1)
		flaky := inj.Flaky(srv, 0.2, 0.1)
		cfg := threads.Config{Procs: 8, Controller: flaky, PollInterval: sim.Second}
		a := threads.Launch(k, 1, apps.Matmul(16, 2, sim.Second), cfg)
		threads.Launch(k, 2, apps.TinyGauss(), cfg) // dies mid-critical-section
		threads.Launch(k, 3, apps.TinyFFT(), cfg)   // frozen for a while
		inj.CrashAppInLock(sim.Time(10*sim.Millisecond), 2)
		inj.StallApp(sim.Time(3*sim.Millisecond), 3, 20*sim.Millisecond)
		eng.Run(sim.Time(0).Add(120 * sim.Second))
		k.Finalize()
		k.Shutdown()
		if !a.Done() {
			t.Error("surviving app never finished under the fault storm")
		}
		var buf bytes.Buffer
		k.MetricsSnapshot().WriteText(&buf)
		return buf.String()
	}
	x := run(1234)
	if y := run(1234); x != y {
		t.Fatalf("same-seed fault storms diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", x, y)
	}
	if z := run(4321); z == x {
		t.Error("different seeds produced byte-identical snapshots; faults are not seeded")
	}
}

// TestChaosSIGKILLMidEpochProvenance kills the daemon while a rebalance
// epoch is still open — targets pushed, no member has acked — and
// restarts it on the journal. Epoch provenance must survive: the
// restarted daemon's next rebalance gets a strictly larger epoch ID
// (the journal carries the rebalance count), that epoch settles once
// the fleet acks it, no orphan open epoch lingers from before the kill,
// and the whole recovery happens without a single register RPC.
func TestChaosSIGKILLMidEpochProvenance(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and execs the real daemon")
	}
	bin := buildProcctld(t)
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	jdir := filepath.Join(t.TempDir(), "journal")

	daemon1 := startProcctld(t, bin, sock, jdir)
	c, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("batch", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("web", 6); err != nil {
		t.Fatal(err)
	}
	// web's registration re-split the machine (batch 6->4, web ->4) and
	// opened an epoch waiting on both members. Nobody acks it: polling
	// with applied=0 reads the pending target and epoch without
	// acknowledging, so the daemon dies mid-epoch.
	target, epochPre, err := c.PollEpoch("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	if target != 4 || epochPre == 0 {
		t.Fatalf("web sees target %d @ epoch %d, want 4 @ nonzero", target, epochPre)
	}
	if openEpochs(t, c) < 1 {
		t.Fatalf("no epoch open at the moment of death; the drill needs one in flight")
	}

	if err := daemon1.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	daemon1.Wait()

	// Restart on the journal with a short lease: the dead clients'
	// restored registrations must expire rather than linger.
	startProcctld(t, bin, sock, jdir, "-lease", "500ms")
	c2, err := coordinator.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The pre-kill epoch is gone with the process; convergence tracking
	// is observability, not obligation, so the restarted daemon starts
	// with a clean open table rather than an orphan it can never close.
	if n := openEpochs(t, c2); n != 0 {
		t.Fatalf("restarted daemon has %d open epochs before any rebalance, want 0", n)
	}

	// A load change supersedes the dead epoch's targets: 4/4 -> 3/3 for
	// the two journal-restored members. The journal also restored the
	// rebalance count, so the new epoch's ID must continue the pre-kill
	// sequence, not restart it. Polls are connection-bound and nobody
	// re-registered, so the epoch ID comes from the daemon's flight
	// ring: the rebalance and target events carry it.
	if err := c2.SetExternalLoad(2); err != nil {
		t.Fatal(err)
	}
	evs, err := c2.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var epochPost uint64
	retargeted := map[string]bool{}
	for _, ev := range evs {
		if ev.Kind == flight.KindRebalance && ev.Epoch > epochPost {
			epochPost = ev.Epoch
		}
		if ev.Kind == flight.KindTarget && ev.A == 3 {
			retargeted[ev.App] = true
		}
	}
	if epochPost <= epochPre {
		t.Fatalf("post-restart epoch %d not after pre-kill epoch %d; provenance broke across the journal", epochPost, epochPre)
	}
	if !retargeted["web"] || !retargeted["batch"] {
		t.Fatalf("restored members not re-targeted by the superseding epoch: %v", retargeted)
	}

	// The epoch waits on two members that will never ack — their
	// processes died with daemon1. Converging is the lease's job: the
	// sweep expires both registrations. The first departure's own
	// rebalance epoch re-targets the survivor, superseding the load
	// epoch; the cascade's last epoch expires with the final member.
	// Every epoch must close, with the right outcome attributed, and
	// nothing may stay open.
	waitFor(t, 5*time.Second, func() bool {
		st, err := c2.Status()
		return err == nil && len(st.Apps) == 0 && openEpochs(t, c2) == 0
	}, "superseding epoch never converged after the dead members' leases expired")
	epochs, err := c2.Converge(0)
	if err != nil {
		t.Fatal(err)
	}
	var closed *coordinator.ConvergeInfo
	sawExpired := false
	for i := range epochs {
		if epochs[i].Epoch == epochPost {
			closed = &epochs[i]
		}
		if epochs[i].Outcome == coordinator.ConvergeExpired &&
			epochs[i].StragglerKind == coordinator.StragglerExpired {
			sawExpired = true
		}
		if epochs[i].Epoch <= epochPre {
			t.Errorf("post-restart report carries pre-kill epoch %d; the open table was not clean", epochs[i].Epoch)
		}
	}
	if closed == nil {
		t.Fatalf("superseding epoch %d missing from converge reports %+v", epochPost, epochs)
	}
	if closed.Members != 2 ||
		(closed.Outcome != coordinator.ConvergeExpired && closed.Outcome != coordinator.ConvergeSuperseded) {
		t.Errorf("superseding epoch report = %+v, want 2 members closed expired or superseded", closed)
	}
	if !sawExpired {
		t.Errorf("no epoch closed as expired although both members left by lease expiry: %+v", epochs)
	}

	// The entire drill — restore, supersede, settle — took zero
	// register RPCs: provenance came from the journal alone.
	snap, err := c2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m := snap.Get(metrics.Name("coordinator_rpcs_total", "op", coordinator.OpRegister)); m != nil && m.Value != 0 {
		t.Errorf("recovery used %d register RPCs, want 0", m.Value)
	}
}
