package coordinator

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"procctl/internal/flight"
	"procctl/internal/metrics"
	"procctl/internal/runtime/pool"
)

// closedEpochs is how many epochs closed with outcome: the count of its
// latency histogram.
func closedEpochs(reg *metrics.Registry, outcome string) int64 {
	return reg.Snapshot(0).Get(metrics.Name("coordinator_convergence_latency_micros", "outcome", outcome)).Count
}

func newTestTracker() (*convergeTracker, *metrics.Registry, *flight.Recorder) {
	reg := metrics.NewRegistry()
	rec := flight.New(flight.DefaultSize)
	return newConvergeTracker(reg, rec), reg, rec
}

func TestConvergeTrackerSettle(t *testing.T) {
	cv, reg, rec := newTestTracker()
	cv.Open(3, 1000, []pendingMember{{name: "a"}, {name: "b", remote: true}})
	if n := cv.OpenEpochs(); n != 1 {
		t.Fatalf("open epochs = %d, want 1", n)
	}
	cv.Ack("a", 3, 1200)
	if n := cv.OpenEpochs(); n != 1 {
		t.Fatalf("epoch closed with a member still pending")
	}
	cv.Ack("b", 3, 1500)
	if n := cv.OpenEpochs(); n != 0 {
		t.Fatalf("open epochs = %d after last ack, want 0", n)
	}

	reports := cv.Reports(0)
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	r := reports[0]
	if r.Epoch != 3 || r.Members != 2 || r.Outcome != ConvergeSettled {
		t.Errorf("report = %+v, want epoch 3, 2 members, settled", r)
	}
	if r.LatencyMicros != 500 {
		t.Errorf("latency = %dµs, want 500 (open 1000 -> last ack 1500)", r.LatencyMicros)
	}
	if r.Straggler != "b" || r.StragglerKind != StragglerRemote {
		t.Errorf("straggler = %s/%s, want b/remote", r.Straggler, r.StragglerKind)
	}

	if v := closedEpochs(reg, ConvergeSettled); v != 1 {
		t.Errorf("settled epochs = %d, want 1", v)
	}
	if v, _ := reg.Value(metrics.Name("coordinator_convergence_stragglers_total", "kind", StragglerRemote)); v != 1 {
		t.Errorf("remote straggler counter = %d, want 1", v)
	}

	// The closure leaves a converge event in the flight ring naming the
	// straggler and carrying the epoch.
	var conv *flight.Event
	for _, ev := range rec.Snapshot(0) {
		if ev.Kind == flight.KindConverge {
			ev := ev
			conv = &ev
		}
	}
	if conv == nil {
		t.Fatal("no converge event recorded")
	}
	if conv.Epoch != 3 || conv.App != "b" || conv.A != 500 || conv.B != 2 {
		t.Errorf("converge event = %+v, want epoch 3, app b, latency 500, members 2", conv)
	}
}

func TestConvergeTrackerSupersede(t *testing.T) {
	cv, reg, _ := newTestTracker()
	cv.Open(1, 0, []pendingMember{{name: "a"}, {name: "b", remote: true}})
	cv.Ack("a", 1, 10)
	// Epoch 2 re-targets b, the only member epoch 1 still waits on: its
	// old target will never be acked, so epoch 1 closes superseded.
	cv.Open(2, 100, []pendingMember{{name: "b", remote: true}})
	if n := cv.OpenEpochs(); n != 1 {
		t.Fatalf("open epochs = %d, want only the superseding epoch", n)
	}
	r := cv.Reports(1)[0]
	if r.Epoch != 1 || r.Outcome != ConvergeSuperseded || r.Straggler != "b" {
		t.Errorf("report = %+v, want epoch 1 superseded by way of b", r)
	}
	if r.LatencyMicros != 100 {
		t.Errorf("superseded latency = %dµs, want 100 (open 0 -> superseded 100)", r.LatencyMicros)
	}
	if v := closedEpochs(reg, ConvergeSuperseded); v != 1 {
		t.Errorf("superseded counter = %d, want 1", v)
	}

	// b's ack through epoch 2 settles the superseding epoch.
	cv.Ack("b", 2, 150)
	if n := cv.OpenEpochs(); n != 0 {
		t.Fatalf("open epochs = %d after ack, want 0", n)
	}
	if r := cv.Reports(1)[0]; r.Epoch != 2 || r.Outcome != ConvergeSettled {
		t.Errorf("newest report = %+v, want epoch 2 settled", r)
	}
}

func TestConvergeTrackerExpire(t *testing.T) {
	cv, reg, _ := newTestTracker()
	cv.Open(5, 0, []pendingMember{{name: "a", remote: true}})
	cv.Drop("a", 50)
	if n := cv.OpenEpochs(); n != 0 {
		t.Fatalf("open epochs = %d after drop, want 0", n)
	}
	r := cv.Reports(1)[0]
	if r.Outcome != ConvergeExpired || r.StragglerKind != StragglerExpired {
		t.Errorf("report = %+v, want expired/expired (departure outranks remoteness)", r)
	}
	if v := closedEpochs(reg, ConvergeExpired); v != 1 {
		t.Errorf("expired counter = %d, want 1", v)
	}
}

func TestConvergeTrackerAckCoversOlderEpochs(t *testing.T) {
	cv, _, _ := newTestTracker()
	// Targets are delivered newest-wins: a member acking epoch 5 has by
	// construction applied anything it was pushed in epochs < 5 too.
	cv.Open(1, 0, []pendingMember{{name: "a"}})
	cv.Ack("a", 5, 20)
	if n := cv.OpenEpochs(); n != 0 {
		t.Fatalf("open epochs = %d, want 0: a newer ack settles older epochs", n)
	}
	if r := cv.Reports(1)[0]; r.Epoch != 1 || r.Outcome != ConvergeSettled {
		t.Errorf("report = %+v, want epoch 1 settled", r)
	}
}

func TestConvergeTrackerNothingChangedNothingTracked(t *testing.T) {
	cv, _, _ := newTestTracker()
	cv.Open(7, 0, nil)
	if n := cv.OpenEpochs(); n != 0 {
		t.Fatalf("epoch with no changed members tracked: open = %d", n)
	}
	if n := len(cv.Reports(0)); n != 0 {
		t.Fatalf("epoch with no changed members reported: %d reports", n)
	}
}

func TestConvergeTrackerNilSafe(t *testing.T) {
	var cv *convergeTracker
	cv.Open(1, 0, []pendingMember{{name: "a"}})
	cv.Ack("a", 1, 0)
	cv.Drop("a", 0)
}

// An ack reads the open-epoch count without the tracker's lock. Acks for
// names no epoch waits on race open → ack → close cycles whose acks come
// from other goroutines, handed each epoch after its Open as a poll is by
// the fan-out; every epoch must still close settled.
func TestConvergeTrackerLockFreeAckRacesOpen(t *testing.T) {
	cv, reg, _ := newTestTracker()
	const epochs = 2000
	stop := make(chan struct{})
	var idle sync.WaitGroup
	for g := 0; g < 2; g++ {
		idle.Add(1)
		go func() {
			defer idle.Done()
			name := fmt.Sprintf("idle-%d", g)
			for e := uint64(1); ; e++ {
				select {
				case <-stop:
					return
				default:
				}
				cv.Ack(name, e, int64(e))
				_ = cv.OpenEpochs()
			}
		}()
	}
	members := []pendingMember{{name: "a", remote: true}, {name: "b", remote: true}}
	feeds := make([]chan uint64, len(members))
	var acked sync.WaitGroup
	for i, m := range members {
		feeds[i] = make(chan uint64)
		go func() {
			for e := range feeds[i] {
				cv.Ack(m.name, e, int64(e)+1)
				acked.Done()
			}
		}()
	}
	for e := uint64(1); e <= epochs; e++ {
		cv.Open(e, int64(e), members)
		acked.Add(len(members))
		for _, f := range feeds {
			f <- e
		}
		acked.Wait()
		if n := cv.OpenEpochs(); n != 0 {
			t.Fatalf("epoch %d: %d open after every member acked", e, n)
		}
	}
	for _, f := range feeds {
		close(f)
	}
	close(stop)
	idle.Wait()
	for outcome, want := range map[string]int64{ConvergeSettled: epochs, ConvergeSuperseded: 0, ConvergeExpired: 0} {
		if v := closedEpochs(reg, outcome); v != want {
			t.Errorf("%s epochs = %d, want %d", outcome, v, want)
		}
	}
}

func TestConvergeTrackerReportRing(t *testing.T) {
	cv, _, _ := newTestTracker()
	for i := 1; i <= closedRing+6; i++ {
		cv.Open(uint64(i), int64(i), []pendingMember{{name: "m"}})
		cv.Ack("m", uint64(i), int64(i))
	}
	all := cv.Reports(0)
	if len(all) != closedRing {
		t.Fatalf("retained %d reports, want ring size %d", len(all), closedRing)
	}
	// Newest first; the oldest six closures were evicted.
	if all[0].Epoch != uint64(closedRing+6) {
		t.Errorf("newest report epoch = %d, want %d", all[0].Epoch, closedRing+6)
	}
	if last := all[len(all)-1]; last.Epoch != 7 {
		t.Errorf("oldest retained epoch = %d, want 7", last.Epoch)
	}
	if lim := cv.Reports(3); len(lim) != 3 || lim[0].Epoch != uint64(closedRing+6) {
		t.Errorf("Reports(3) = %d entries starting at %d, want 3 from the newest", len(lim), lim[0].Epoch)
	}
}

// TestServerEpochWire walks an epoch across the wire: registrations
// open it, polls carrying applied-epoch acks settle it, and the
// converge op reports the closure.
func TestServerEpochWire(t *testing.T) {
	srv, sock := startServer(t, 8)
	c1, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	_, e1, err := c1.registerEpoch("alpha", 8, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == 0 {
		t.Fatal("register served no epoch")
	}
	_, e2, err := c2.registerEpoch("beta", 8, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("epochs not monotone: %d then %d", e1, e2)
	}

	// Epoch e2 changed both targets (alpha 8->4, beta 0->4) and is
	// waiting on both; e1 closed superseded when e2 re-targeted alpha.
	if n := srv.Coordinator().OpenEpochs(); n != 1 {
		t.Fatalf("open epochs = %d, want 1", n)
	}

	target, pe, err := c1.PollEpoch("alpha", e2)
	if err != nil {
		t.Fatal(err)
	}
	if target != 4 || pe != e2 {
		t.Fatalf("alpha poll = %d @ epoch %d, want 4 @ %d", target, pe, e2)
	}
	if n := srv.Coordinator().OpenEpochs(); n != 1 {
		t.Fatalf("epoch settled with beta still pending (open = %d)", n)
	}
	if _, _, err := c2.PollEpoch("beta", e2); err != nil {
		t.Fatal(err)
	}

	epochs, err := c1.Converge(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Coordinator().OpenEpochs(); n != 0 {
		t.Errorf("%d open epochs, want 0", n)
	}
	if n := closedEpochs(srv.Coordinator().Metrics(), ConvergeSettled); n != 1 {
		t.Errorf("%d settled closures, want 1", n)
	}
	var settled, superseded *ConvergeInfo
	for i := range epochs {
		switch epochs[i].Epoch {
		case e2:
			settled = &epochs[i]
		case e1:
			superseded = &epochs[i]
		}
	}
	if settled == nil || settled.Outcome != ConvergeSettled || settled.Members != 2 {
		t.Errorf("epoch %d report = %+v, want settled with 2 members", e2, settled)
	}
	if settled != nil && (settled.Straggler != "beta" || settled.StragglerKind != StragglerRemote) {
		t.Errorf("straggler = %+v, want beta/remote (beta acked last)", settled)
	}
	if superseded == nil || superseded.Outcome != ConvergeSuperseded {
		t.Errorf("epoch %d report = %+v, want superseded", e1, superseded)
	}
}

// TestServerEpochExpiresOnDisconnect covers the lease/disconnect leg:
// a member that drops off the wire mid-epoch expires out of it rather
// than leaving the epoch open forever.
func TestServerEpochExpiresOnDisconnect(t *testing.T) {
	srv, sock := startServer(t, 8)
	c1, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := c1.registerEpoch("alpha", 8, 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	_, e2, err := c2.registerEpoch("beta", 8, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// alpha acks e2, leaving beta the only pending member...
	if _, _, err := c1.PollEpoch("alpha", e2); err != nil {
		t.Fatal(err)
	}
	// ...then beta vanishes without ever acking; the conn drop
	// unregisters it and e2 must close expired. The departure itself
	// opens a fresh epoch (alpha 4->8), so ack that one too.
	c2.Close()
	var e3 uint64
	waitFor(t, 5*time.Second, func() bool {
		target, epoch, err := c1.PollEpoch("alpha", 0)
		if err != nil {
			return false
		}
		e3 = epoch
		return target == 8 && epoch > e2
	}, "departure rebalance never reached alpha")
	if _, _, err := c1.PollEpoch("alpha", e3); err != nil {
		t.Fatal(err)
	}
	if n := srv.Coordinator().OpenEpochs(); n != 0 {
		t.Fatalf("open epochs = %d after departure settled, want 0", n)
	}
	var expired *ConvergeInfo
	for _, r := range srv.Coordinator().conv.Reports(0) {
		if r.Epoch == e2 {
			r := r
			expired = &r
		}
	}
	if expired == nil || expired.Outcome != ConvergeExpired || expired.Straggler != "beta" {
		t.Fatalf("epoch %d report = %+v, want expired with beta the straggler", e2, expired)
	}
}

// TestServerInprocMembersSettleSynchronously: a pool registered in
// process acks during the rebalance itself, so epochs whose only
// changed members are in-process never stay open.
func TestServerInprocSettle(t *testing.T) {
	srv, _ := startServer(t, 8)
	p := pool.New(pool.Config{Name: "local", Workers: 8})
	defer p.Close()
	srv.Coordinator().Register(p)
	if n := srv.Coordinator().OpenEpochs(); n != 0 {
		t.Fatalf("open epochs = %d, want 0: in-process members ack synchronously", n)
	}
	reports := srv.Coordinator().conv.Reports(1)
	if len(reports) != 1 {
		t.Fatalf("no converge report after in-process registration")
	}
	if r := reports[0]; r.Outcome != ConvergeSettled || r.StragglerKind != StragglerInproc {
		t.Errorf("report = %+v, want settled/inproc", r)
	}
}

func TestFilterEventsWrappedRing(t *testing.T) {
	// A ring that has wrapped: sequences 1..99 evicted, 100..109
	// retained. filterEvents compacts its input in place (the server
	// hands it a fresh ring snapshot per request), so each assertion
	// rebuilds the slice.
	ring := func() []flight.Event {
		evs := make([]flight.Event, 10)
		for i := range evs {
			evs[i] = flight.Event{Seq: uint64(100 + i), Kind: "target", Epoch: uint64(4 + i%2)}
		}
		return evs
	}

	// -since pointing into the evicted range returns everything retained
	// rather than nothing: the caller learns the tail, not an error.
	if got := filterEvents(ring(), 5, 0, 0); len(got) != 10 {
		t.Errorf("since evicted seq kept %d events, want all 10", len(got))
	}
	if got := filterEvents(ring(), 105, 0, 0); len(got) != 5 || got[0].Seq != 105 {
		t.Errorf("since retained seq kept %d from %d, want 5 from 105", len(got), got[0].Seq)
	}
	got := filterEvents(ring(), 0, 5, 0)
	if len(got) != 5 {
		t.Errorf("epoch filter kept %d events, want 5", len(got))
	}
	for _, ev := range got {
		if ev.Epoch != 5 {
			t.Errorf("epoch filter leaked epoch %d", ev.Epoch)
		}
	}
	// Unknown epoch: empty result, not an error.
	if got := filterEvents(ring(), 0, 999, 0); len(got) != 0 {
		t.Errorf("unknown epoch kept %d events, want 0", len(got))
	}
	// Filters compose with the recency limit: last N of the survivors.
	if got := filterEvents(ring(), 102, 0, 3); len(got) != 3 || got[0].Seq != 107 {
		t.Errorf("since+limit = %d events from %d, want 3 from 107", len(got), got[0].Seq)
	}
}

// TestServerEventsFilterWire exercises the same filters end to end
// through the events op.
func TestServerEventsFilterWire(t *testing.T) {
	_, sock := startServer(t, 8)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Register("a", 8)
	c.Register("b", 8)

	all, err := c.EventsFiltered(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Fatalf("only %d events after two registrations", len(all))
	}
	mid := all[len(all)/2].Seq
	tail, err := c.EventsFiltered(0, mid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(all)-len(all)/2 {
		t.Errorf("since %d returned %d events, want %d", mid, len(tail), len(all)-len(all)/2)
	}
	for _, ev := range tail {
		if ev.Seq < mid {
			t.Errorf("since filter leaked seq %d < %d", ev.Seq, mid)
		}
	}
	none, err := c.EventsFiltered(0, 0, 424242)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("unknown epoch returned %d events, want none", len(none))
	}
}
