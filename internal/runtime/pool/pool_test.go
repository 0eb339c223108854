package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"procctl/internal/flight"
	"procctl/internal/metrics"
)

func TestAllTasksRun(t *testing.T) {
	p := New(Config{Name: "t", Workers: 4})
	var n atomic.Int64
	const tasks = 500
	for i := 0; i < tasks; i++ {
		if err := p.Submit(func() { n.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	p.Wait()
	if n.Load() != tasks {
		t.Errorf("ran %d of %d tasks", n.Load(), tasks)
	}
	st := p.Stats()
	if st.Submitted != tasks || st.Completed != tasks {
		t.Errorf("stats %+v", st)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	p := New(Config{Workers: 1})
	p.Close()
	if err := p.Submit(func() {}); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	p.Wait()
}

func TestSubmitNil(t *testing.T) {
	p := New(Config{Workers: 1})
	defer func() { p.Close(); p.Wait() }()
	if err := p.Submit(nil); err == nil {
		t.Error("nil task accepted")
	}
}

func TestDefaults(t *testing.T) {
	p := New(Config{})
	if p.Workers() < 1 {
		t.Errorf("Workers = %d", p.Workers())
	}
	if p.Name() != "pool" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Target() != p.Workers() {
		t.Errorf("default target %d != workers %d", p.Target(), p.Workers())
	}
	p.Close()
	p.Wait()
}

func TestSetTargetClamps(t *testing.T) {
	p := New(Config{Workers: 4})
	p.SetTarget(0)
	if p.Target() != 1 {
		t.Errorf("target %d, want clamp to 1", p.Target())
	}
	p.SetTarget(100)
	if p.Target() != 4 {
		t.Errorf("target %d, want clamp to 4", p.Target())
	}
	p.Close()
	p.Wait()
}

func TestTargetLimitsConcurrency(t *testing.T) {
	const workers = 8
	p := New(Config{Workers: workers, Target: 2})
	var cur, peak atomic.Int64
	var mu sync.Mutex
	updatePeak := func(v int64) {
		mu.Lock()
		if v > peak.Load() {
			peak.Store(v)
		}
		mu.Unlock()
	}
	for i := 0; i < 100; i++ {
		p.Submit(func() {
			v := cur.Add(1)
			updatePeak(v)
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	p.Close()
	p.Wait()
	if peak.Load() > 2 {
		t.Errorf("concurrency peaked at %d with target 2", peak.Load())
	}
}

func TestTargetRaiseResumesWorkers(t *testing.T) {
	p := New(Config{Workers: 4, Target: 1})
	var cur, peak atomic.Int64
	var mu sync.Mutex
	block := make(chan struct{})
	for i := 0; i < 40; i++ {
		p.Submit(func() {
			v := cur.Add(1)
			mu.Lock()
			if v > peak.Load() {
				peak.Store(v)
			}
			mu.Unlock()
			<-block
			cur.Add(-1)
		})
	}
	// Let the pool throttle to 1, then raise.
	time.Sleep(20 * time.Millisecond)
	p.SetTarget(4)
	time.Sleep(50 * time.Millisecond)
	close(block)
	p.Close()
	p.Wait()
	if peak.Load() < 4 {
		t.Errorf("after raising the target, peak concurrency %d, want 4", peak.Load())
	}
	st := p.Stats()
	if st.Suspensions == 0 || st.Resumes == 0 {
		t.Errorf("no suspension activity recorded: %+v", st)
	}
}

func TestSuspensionHappensBetweenTasks(t *testing.T) {
	// A running task is never interrupted: even with target 1, a long
	// task admitted earlier finishes.
	p := New(Config{Workers: 2})
	started := make(chan struct{}, 2)
	finish := make(chan struct{})
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		p.Submit(func() {
			started <- struct{}{}
			<-finish
			done <- struct{}{}
		})
	}
	<-started
	<-started
	p.SetTarget(1) // both tasks already executing; neither is killed
	close(finish)
	<-done
	<-done
	p.Close()
	p.Wait()
}

func TestWaitBlocksUntilDrained(t *testing.T) {
	p := New(Config{Workers: 2})
	var done atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func() {
			time.Sleep(time.Millisecond)
			done.Add(1)
		})
	}
	p.Close()
	p.Wait()
	if done.Load() != 50 {
		t.Errorf("Wait returned before tasks drained: %d/50", done.Load())
	}
}

func TestSuspendedWorkersExitOnClose(t *testing.T) {
	p := New(Config{Workers: 4, Target: 1})
	for i := 0; i < 4; i++ {
		p.Submit(func() { time.Sleep(time.Millisecond) })
	}
	time.Sleep(10 * time.Millisecond) // some workers now suspended
	p.Close()
	doneCh := make(chan struct{})
	go func() { p.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung: suspended workers did not exit on Close")
	}
}

func TestConcurrentSubmitAndRetarget(t *testing.T) {
	p := New(Config{Workers: 8})
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Submit(func() { n.Add(1) })
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			p.SetTarget(1 + i%8)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	p.Close()
	p.Wait()
	if n.Load() != 800 {
		t.Errorf("ran %d of 800 tasks under churn", n.Load())
	}
}

func TestBacklogAndExecuting(t *testing.T) {
	p := New(Config{Workers: 1})
	block := make(chan struct{})
	p.Submit(func() { <-block })
	p.Submit(func() {})
	// Wait for the first task to start.
	deadline := time.Now().Add(2 * time.Second)
	for p.Executing() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Executing() != 1 {
		t.Fatal("first task never started")
	}
	if p.Backlog() != 1 {
		t.Errorf("Backlog = %d, want 1", p.Backlog())
	}
	close(block)
	p.Close()
	p.Wait()
	if p.Backlog() != 0 {
		t.Errorf("Backlog after drain = %d", p.Backlog())
	}
}

func TestRunnableReporting(t *testing.T) {
	p := New(Config{Workers: 4})
	if p.Runnable() != 4 {
		t.Errorf("initial Runnable = %d", p.Runnable())
	}
	p.SetTarget(2)
	// Workers suspend lazily at safe points; give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for p.Runnable() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Runnable() != 2 {
		t.Errorf("Runnable = %d after throttling to 2", p.Runnable())
	}
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
	p.Close()
	p.Wait()
}

func TestSpinPercent(t *testing.T) {
	p := New(Config{Name: "spin", Workers: 1})
	if got := p.SpinPercent(); got != 0 {
		t.Errorf("SpinPercent before any work = %v, want 0", got)
	}
	// Busy phase: one task occupies the worker for ~10 ms.
	p.Submit(func() { time.Sleep(10 * time.Millisecond) })
	// Idle phase: the worker waits on an empty queue; the idle span is
	// committed when the next broadcast (Submit below) wakes it.
	time.Sleep(60 * time.Millisecond)
	p.Submit(func() {})
	p.Close()
	p.Wait()
	sp := p.SpinPercent()
	if sp <= 50 || sp > 100 {
		t.Errorf("SpinPercent = %.1f after ~50ms idle vs ~10ms busy, want well above 50", sp)
	}
}

func TestSpinPercentExcludesParkedTime(t *testing.T) {
	// One of two workers parks immediately (runnable 2 > target 1) and
	// stays parked to the end. Parked time is deliberate yielding, so it
	// must not count as spin.
	p := New(Config{Name: "park", Workers: 2, Target: 1})
	time.Sleep(50 * time.Millisecond)
	p.Submit(func() { time.Sleep(5 * time.Millisecond) })
	p.Close()
	p.Wait()
	p.mu.Lock()
	busy, idle, park := p.busyNanos, p.idleNanos, p.parkNanos
	p.mu.Unlock()
	if park <= 0 {
		t.Fatalf("no parked time recorded (busy=%d idle=%d park=%d)", busy, idle, park)
	}
	want := 100 * float64(idle) / float64(busy+idle)
	if got := p.SpinPercent(); got != want {
		t.Errorf("SpinPercent = %v, want %v (parked time excluded)", got, want)
	}
}

func TestPoolTimeGauges(t *testing.T) {
	p := New(Config{Name: "g", Workers: 1})
	p.Submit(func() { time.Sleep(2 * time.Millisecond) })
	p.Close()
	p.Wait()
	snap := p.Metrics().Snapshot(0)
	if m := snap.Get(metrics.Name("pool_busy_micros", "pool", "g")); m == nil || m.Value <= 0 {
		t.Errorf("pool_busy_micros missing or zero: %+v", m)
	}
	for _, name := range []string{"pool_idle_micros", "pool_parked_micros"} {
		if snap.Get(metrics.Name(name, "pool", "g")) == nil {
			t.Errorf("%s not exported", name)
		}
	}
}

// settleEvents extracts the settle instants a pool recorded.
func settleEvents(rec *flight.Recorder) []flight.Event {
	var out []flight.Event
	for _, ev := range rec.Snapshot(0) {
		if ev.Kind == flight.KindSettle {
			out = append(out, ev)
		}
	}
	return out
}

func TestSetTargetEpochSettles(t *testing.T) {
	rec := flight.New(16)
	p := New(Config{Name: "web", Workers: 4, Flight: rec})
	defer p.Close()

	// A fresh pool is already at its target; nothing to converge.
	if !p.Settled() {
		t.Fatal("fresh pool not settled")
	}

	if applied := p.SetTargetEpoch(2, 9); !applied {
		t.Fatal("in-process member did not report the epoch applied")
	}
	if e := p.Epoch(); e != 9 {
		t.Fatalf("epoch = %d, want 9", e)
	}
	// Workers park at their next suspension point; the settle instant
	// fires when the runnable count reaches the new target.
	deadline := time.Now().Add(5 * time.Second)
	for !p.Settled() {
		if time.Now().After(deadline) {
			t.Fatalf("pool never settled at target 2 (runnable %d)", p.Runnable())
		}
		time.Sleep(time.Millisecond)
	}
	evs := settleEvents(rec)
	if len(evs) != 1 {
		t.Fatalf("recorded %d settle events, want 1", len(evs))
	}
	if ev := evs[0]; ev.App != "web" || ev.A != 2 || ev.Epoch != 9 {
		t.Errorf("settle event = %+v, want app web, target 2, epoch 9", ev)
	}

	// Re-pushing the unchanged target keeps the epoch that set it and
	// settles nothing: only genuine changes have propagation to observe.
	p.SetTargetEpoch(2, 10)
	if e := p.Epoch(); e != 9 {
		t.Errorf("unchanged re-push moved the epoch to %d, want 9 kept", e)
	}
	if n := len(settleEvents(rec)); n != 1 {
		t.Errorf("unchanged re-push recorded a settle event (%d total)", n)
	}

	// Raising the target unparks workers and settles again under the
	// new epoch.
	p.SetTargetEpoch(4, 11)
	deadline = time.Now().Add(5 * time.Second)
	for !p.Settled() {
		if time.Now().After(deadline) {
			t.Fatalf("pool never settled at target 4 (runnable %d)", p.Runnable())
		}
		time.Sleep(time.Millisecond)
	}
	evs = settleEvents(rec)
	if len(evs) != 2 {
		t.Fatalf("recorded %d settle events after raise, want 2", len(evs))
	}
	if ev := evs[1]; ev.A != 4 || ev.Epoch != 11 {
		t.Errorf("second settle event = %+v, want target 4, epoch 11", ev)
	}
}

// BenchmarkEpochStamp is one epoch-stamped target delivery that moves the
// target — the pool-side half of what a DriveWith poll round applies:
// epoch recorded, settle tracking re-armed, workers re-converging.
func BenchmarkEpochStamp(b *testing.B) {
	b.ReportAllocs()
	p := New(Config{Name: "bench", Workers: 2, Flight: flight.New(flight.DefaultSize)})
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SetTargetEpoch(1+i%2, uint64(i+1))
	}
}

// Once the flight ring has grown to its capacity, a target that moves on
// every push allocates nothing.
func TestEpochStampAllocatesNothing(t *testing.T) {
	p := New(Config{Name: "bench", Workers: 2, Flight: flight.New(flight.DefaultSize)})
	defer p.Close()
	epoch := uint64(0)
	stamp := func() {
		epoch++
		p.SetTargetEpoch(1+int(epoch%2), epoch)
	}
	for i := 0; i < 2*flight.DefaultSize; i++ {
		stamp()
	}
	if n := testing.AllocsPerRun(1000, stamp); n != 0 {
		t.Errorf("a moving SetTargetEpoch allocates %.0f times, want 0", n)
	}
}

// A coordinator pushes to every member on every rebalance, and most of
// those pushes repeat the target held: they must wake nobody. A worker
// accrues its idle or parked time when it wakes, so while nobody wakes
// the accrued totals stand still.
func TestRepeatedTargetWakesNobody(t *testing.T) {
	p := New(Config{Workers: 4})
	defer func() {
		p.Close()
		p.Wait()
	}()
	accrued := func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.idleNanos + p.parkNanos
	}
	// settled waits out the wake-ups still in flight from the last change.
	settled := func() int64 {
		for {
			a := accrued()
			time.Sleep(10 * time.Millisecond)
			if b := accrued(); a == b {
				return b
			}
		}
	}
	p.SetTarget(2) // two park, two idle
	deadline := time.Now().Add(2 * time.Second)
	for p.Runnable() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("runnable = %d, want 2", p.Runnable())
		}
		time.Sleep(time.Millisecond)
	}
	before := settled()
	for epoch := uint64(1); epoch <= 100; epoch++ {
		p.SetTargetEpoch(2, epoch)
	}
	time.Sleep(20 * time.Millisecond)
	if got := accrued(); got != before {
		t.Errorf("100 pushes of the target already held woke workers: accrued wait went from %d to %d ns", before, got)
	}
	p.SetTarget(3) // a target that moved still does
	for deadline = time.Now().Add(2 * time.Second); accrued() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a raised target woke nobody")
		}
	}
}
