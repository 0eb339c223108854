package coordinator

import (
	"net"
	"sync"
	"testing"
	"time"

	"procctl/internal/flight"
	"procctl/internal/metrics"
)

// TestRebalanceSpansRecorded asserts every stage of the rebalance span
// lands in coordinator_rebalance_latency_micros, one observation per
// rebalance, with exported quantiles.
func TestRebalanceSpansRecorded(t *testing.T) {
	c := New(8)
	c.Register(&fakeMember{name: "a", workers: 8})
	c.Register(&fakeMember{name: "b", workers: 8})
	for i := 0; i < 10; i++ {
		c.Rebalance()
	}
	snap := c.Snapshot()
	var total int64
	for _, stage := range rebalanceStages {
		m := snap.Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", stage))
		if m == nil {
			t.Fatalf("stage %q: histogram missing", stage)
		}
		// 2 registrations + 10 rebalances = 12 spans.
		if m.Count != 12 {
			t.Errorf("stage %q: %d spans, want 12", stage, m.Count)
		}
		if len(m.Quantiles) != 4 {
			t.Errorf("stage %q: %d exported quantiles, want 4", stage, len(m.Quantiles))
		}
		if stage == StageTotal {
			total = m.Sum
		}
	}
	// The total stage dominates each sub-stage by construction.
	for _, stage := range []string{StageSnapshot, StageRecompute, StageNotify} {
		if sub := snap.Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", stage)); sub.Sum > total {
			t.Errorf("stage %q sum %dµs exceeds total %dµs", stage, sub.Sum, total)
		}
	}
}

// TestFlightRecorderCapturesMembershipStory replays a small membership
// history and checks the flight recorder tells it back: registrations,
// target changes, rebalance spans, and the unregister, in order.
func TestFlightRecorderCapturesMembershipStory(t *testing.T) {
	c := New(4)
	c.Register(&fakeMember{name: "fft", workers: 4})
	c.Register(&fakeMember{name: "sort", workers: 4})
	c.Unregister("sort")

	evs := c.Events(0)
	if len(evs) == 0 {
		t.Fatal("flight recorder empty after membership churn")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("event seqs not dense: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event timestamps regressed: %d then %d", evs[i-1].At, evs[i].At)
		}
	}
	type key struct{ kind, app string }
	seen := map[key]int{}
	for _, ev := range evs {
		seen[key{ev.Kind, ev.App}]++
	}
	for _, want := range []key{
		{flight.KindRegister, "fft"},
		{flight.KindRegister, "sort"},
		{flight.KindUnregister, "sort"},
		{flight.KindTarget, "fft"},
		{flight.KindRebalance, ""},
	} {
		if seen[want] == 0 {
			t.Errorf("no %s event for %q in: %+v", want.kind, want.app, evs)
		}
	}
	// fft went 4 (alone) → 2 (sharing) → 4 (alone again): at least two
	// target-change events, and the last one must carry the final value.
	var lastTarget *flight.Event
	for i := range evs {
		if evs[i].Kind == flight.KindTarget && evs[i].App == "fft" {
			lastTarget = &evs[i]
		}
	}
	if lastTarget == nil || lastTarget.A != 4 {
		t.Errorf("last fft target event = %+v, want target 4", lastTarget)
	}
	if seen[key{flight.KindTarget, "fft"}] < 2 {
		t.Errorf("fft target changed %d times in the log, want >= 2", seen[key{flight.KindTarget, "fft"}])
	}

	// Steady-state rebalances (no target movement) must not log target
	// events — only spans.
	before := len(c.Events(0))
	c.Rebalance()
	after := c.Events(0)
	var fresh []flight.Event
	for _, ev := range after {
		if int(ev.Seq) >= before {
			fresh = append(fresh, ev)
		}
	}
	if len(fresh) != 1 || fresh[0].Kind != flight.KindRebalance {
		t.Errorf("steady-state rebalance logged %+v, want exactly one rebalance span", fresh)
	}
}

// TestEventsOpOverSocket drives the events dump through the wire
// protocol end to end.
func TestEventsOpOverSocket(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := New(4)
	srv := NewServer(coord, ln)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); srv.Serve() }()
	defer func() { srv.Close(); wg.Wait() }()

	client, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Register("wire", 3); err != nil {
		t.Fatal(err)
	}

	evs, err := client.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var sawRegister, sawSpan bool
	for _, ev := range evs {
		if ev.Kind == flight.KindRegister && ev.App == "wire" && ev.A == 3 {
			sawRegister = true
		}
		if ev.Kind == flight.KindRebalance {
			sawSpan = true
		}
	}
	if !sawRegister || !sawSpan {
		t.Errorf("events over the wire missing register/span: %+v", evs)
	}

	// Limit trims from the oldest side.
	limited, err := client.Events(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 || limited[0].Seq != evs[len(evs)-1].Seq {
		t.Errorf("Events(1) = %+v, want just the newest event", limited)
	}

	// The metrics op carries the stage quantiles.
	snap, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range rebalanceStages {
		m := snap.Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", stage))
		if m == nil || m.Count < 1 {
			t.Fatalf("stage %q: %+v, want a recorded span", stage, m)
		}
		if p50, p99, p999 := m.Quantile(500), m.Quantile(990), m.Quantile(999); p50 > p99 || p99 > p999 {
			t.Errorf("stage %q: quantiles not monotone: %d %d %d", stage, p50, p99, p999)
		}
	}
}

// TestDriverRecordsApplyStageAndFlight checks the client half: the
// apply-stage histogram fills, and redial/reconnect events land in the
// caller-supplied flight recorder after a daemon restart.
func TestDriverRecordsApplyStageAndFlight(t *testing.T) {
	sock := t.TempDir() + "/d.sock"
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	coord := New(4)
	srv := NewServer(coord, ln)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); srv.Serve() }()

	client, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reg := metrics.NewRegistry()
	rec := flight.New(128)
	m := &fakeMember{name: "app", workers: 4}
	d, err := client.DriveWith("app", 4, m, DriveOptions{
		Interval:   20 * time.Millisecond,
		Grace:      10 * time.Second,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		Metrics:    reg,
		Flight:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	waitTrue(t, 5*time.Second, func() bool {
		m := reg.Snapshot(0).Get(metrics.Name("coordinator_client_poll_micros", "app", "app"))
		return m != nil && m.Count >= 1
	}, "no poll round-trip recorded")
	applied := reg.Snapshot(0).Get(metrics.Name("coordinator_rebalance_latency_micros", "stage", StageApply, "app", "app"))
	if applied == nil || applied.Count < 1 {
		t.Fatalf("apply-stage histogram empty: %+v", applied)
	}

	// Restart the daemon; the driver's recovery must leave a redial and
	// a reconnect in the flight log.
	srv.Close()
	wg.Wait()
	ln2, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(coord, ln2)
	wg.Add(1)
	go func() { defer wg.Done(); srv2.Serve() }()
	defer func() { srv2.Close(); wg.Wait() }()

	waitTrue(t, 5*time.Second, func() bool {
		var redial, reconnect bool
		for _, ev := range rec.Snapshot(0) {
			redial = redial || ev.Kind == flight.KindRedial
			reconnect = reconnect || ev.Kind == flight.KindReconnect
		}
		return redial && reconnect
	}, "driver recovery left no redial/reconnect flight events")
}

// waitTrue polls cond until it holds or the deadline passes.
func waitTrue(t *testing.T, d time.Duration, cond func() bool, msg string) {
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
