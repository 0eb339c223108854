package coordinator

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// Ten registrations inside one production batch window land as one
// epoch, flushed exactly DefaultBatchWindow after they arrived.
func TestBatchingCoalescesRegistrations(t *testing.T) {
	runBubble(t, func() {
		c := New(16)
		stop := c.StartBatching(0)
		defer stop()
		const n = 10
		members := make([]*fakeMember, n)
		for i := range members {
			members[i] = &fakeMember{name: fmt.Sprintf("burst%d", i), workers: 4}
			c.RegisterWeighted(members[i], 1)
		}
		sum := func() (total int) {
			for _, m := range members {
				total += m.got()
			}
			return total
		}
		time.Sleep(DefaultBatchWindow - time.Nanosecond)
		waitBubble()
		if got, reb := sum(), c.Rebalances(); got != 0 || reb != 0 {
			t.Fatalf("a nanosecond before the window closes: targets sum to %d after %d rebalances, want nothing pushed", got, reb)
		}
		time.Sleep(time.Nanosecond)
		waitBubble()
		if got := sum(); got != 16 {
			t.Errorf("as the window closes: targets sum to %d, want 16", got)
		}
		if reb := c.Rebalances(); reb != 1 {
			t.Errorf("rebalances = %d for %d registrations in one window, want 1", reb, n)
		}
		if v := c.met.batchFlushes.Value(); v != 1 {
			t.Errorf("batch flushes = %d, want 1", v)
		}
		if v := c.met.batchCoalesced.Value(); v != n-1 {
			t.Errorf("batch coalesced = %d, want %d", v, n-1)
		}
	})
}

// Stopping batching flushes what the open window holds at once, without
// waiting the window out, and rebalances inline from then on.
func TestBatchingStopFlushesPendingWork(t *testing.T) {
	runBubble(t, func() {
		c := New(8)
		stop := c.StartBatching(0)
		start := time.Now()
		m := &fakeMember{name: "late", workers: 8}
		c.RegisterWeighted(m, 1)
		waitBubble()
		if got := m.got(); got != 0 {
			t.Fatalf("target pushed before any flush: %d", got)
		}
		stop()
		if got, at := m.got(), time.Since(start); got != 8 || at != 0 {
			t.Errorf("target after stop-flush = %d at %v, want 8 at once", got, at)
		}
		m2 := &fakeMember{name: "after", workers: 8}
		c.RegisterWeighted(m2, 1)
		if got := m2.got(); got != 4 {
			t.Errorf("post-batching inline target = %d, want 4", got)
		}
	})
}

// orphan drives app (16 processes) at poll interval iv against a
// capacity-4 server, closes the server a second in, and returns once the
// driver has found out at its next poll, with how long ago that was.
// Call it in a bubble; the caller stops the driver and closes c.
func orphan(t *testing.T, tr *trackingTargeter, iv time.Duration) (c *Client, d *Driver, lostFor time.Duration) {
	srv := startPipeServer(4, DefaultLease)
	c = pipeClient(srv)
	d, err := c.DriveWith("app", 16, tr, DriveOptions{Interval: iv})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if got := tr.last(); got != 4 {
		t.Errorf("initial target %d, want the capacity 4", got)
	}
	time.Sleep(time.Second)
	srv.Close()
	time.Sleep(iv)
	waitBubble()
	s := d.Stats()
	if !s.Degraded || s.DegradedFor <= 0 || s.PollErrors != 1 {
		t.Errorf("stats one poll interval after the daemon died: %+v, want degraded after one failed poll", s)
	}
	return c, d, s.DegradedFor
}

// A daemon that answers the registration and then stops answering, its
// connection still open (SIGSTOPped, or wedged), costs the driver one
// poll: the round trip gives up at its deadline, closes the connection,
// so that a late reply cannot pair with a later request, and the driver
// goes degraded. Stop then returns. The registration arms the deadline
// DefaultIOTimeout on; a poll 30 ms later finds more than half of it
// left and keeps it, one DefaultPollInterval later finds less and
// re-arms it.
func TestDriveWithSurvivesHungDaemon(t *testing.T) {
	for _, tc := range []struct{ iv, lost time.Duration }{
		{30 * time.Millisecond, DefaultIOTimeout},
		{DefaultPollInterval, DefaultPollInterval + DefaultIOTimeout},
	} {
		t.Run(tc.iv.String(), func(t *testing.T) {
			runBubble(t, func() {
				cconn, sconn := net.Pipe()
				gone := make(chan struct{})
				go func() {
					defer close(gone)
					defer sconn.Close()
					rd := lineReader{r: sconn}
					if _, err := rd.readLine(); err != nil {
						return
					}
					if _, err := io.WriteString(sconn, `{"ok":true,"target":4}`+"\n"); err != nil {
						return
					}
					for { // read every request, answer none
						if _, err := rd.readLine(); err != nil {
							return
						}
					}
				}()
				c := newClient(cconn)
				defer c.Close()
				var tr trackingTargeter
				// The registration brings no epoch to ack, so the first poll
				// goes out one interval on.
				d, err := c.DriveWith("app", 16, &tr, DriveOptions{Interval: tc.iv})
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(tc.lost - time.Nanosecond)
				waitBubble()
				if s := d.Stats(); s.Degraded || s.Polls != 0 || s.PollErrors != 0 {
					t.Errorf("stats a nanosecond before the poll's deadline: %+v, want connected with the poll pending", s)
				}
				time.Sleep(time.Nanosecond)
				waitBubble()
				if s := d.Stats(); !s.Degraded || s.Polls != 0 || s.PollErrors != 1 || s.Target != 4 {
					t.Errorf("stats at the poll's deadline: %+v, want degraded after one failed poll, holding 4", s)
				}
				select {
				case <-gone:
				default:
					t.Error("the client kept the connection to the daemon that stopped answering")
				}
				d.Stop()
			})
		})
	}
}

// Inside the grace period, 2×DefaultPollInterval, the driver holds the
// daemon's last target; the first decay step lands as the grace ends.
func TestDriveWithHoldsTargetThroughGrace(t *testing.T) {
	runBubble(t, func() {
		var tr trackingTargeter
		c, d, lostFor := orphan(t, &tr, DefaultPollInterval)
		defer c.Close()
		defer d.Stop()
		const grace = 2 * DefaultPollInterval
		time.Sleep(grace - lostFor - time.Nanosecond)
		waitBubble()
		if got := tr.last(); got != 4 {
			t.Errorf("target %d a nanosecond before the grace ends, want the held 4", got)
		}
		time.Sleep(time.Nanosecond)
		waitBubble()
		if got := tr.last(); got != 10 {
			t.Errorf("target %d as the grace ends, want the first decay step to 10", got)
		}
	})
}

// Past the grace period the target halves its gap to the full process
// count once per poll interval, to the nanosecond at any interval: 4 →
// 10 → 13 → 15 → 16. A pipe client's redials fail at once, so the
// clock keeps moving while the driver retries them between the steps.
func TestDriveWithDegradedDecayTowardFull(t *testing.T) {
	for _, iv := range []time.Duration{DefaultPollInterval, 30 * time.Millisecond} {
		t.Run(iv.String(), func(t *testing.T) {
			runBubble(t, func() {
				var tr trackingTargeter
				c, d, lostFor := orphan(t, &tr, iv)
				defer c.Close()
				defer d.Stop()
				time.Sleep(2*iv - lostFor - time.Nanosecond)
				prev := 4
				for _, want := range []int{10, 13, 15, 16} {
					waitBubble()
					if got := tr.last(); got != prev {
						t.Errorf("target %d a nanosecond before the step to %d, want %d", got, want, prev)
					}
					time.Sleep(time.Nanosecond)
					waitBubble()
					if got := tr.last(); got != want {
						t.Errorf("target %d at the step, want %d", got, want)
					}
					prev = want
					time.Sleep(iv - time.Nanosecond)
				}
				s := d.Stats()
				if !s.Degraded || s.Target != 16 {
					t.Errorf("stats = %+v, want degraded at the full 16", s)
				}
			})
		})
	}
}

// At a 30 ms interval the driver polls every 30 ms to the nanosecond,
// its first poll at once to ack the registration's epoch, so k polls
// after that take k×30 ms. An epoch decided just after a poll settles at
// the next one, exactly one interval later: the poll that brings the
// new target is followed at once by the one that acks it.
func TestDriveWithPollsAtItsInterval(t *testing.T) {
	const iv = 30 * time.Millisecond
	runBubble(t, func() {
		srv := startPipeServer(8, DefaultLease)
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()
		var tr trackingTargeter
		d, err := c.DriveWith("app", 8, &tr, DriveOptions{Interval: iv})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		waitBubble()
		const k = 5
		for i := int64(1); i <= k; i++ {
			time.Sleep(iv - time.Nanosecond)
			waitBubble()
			if n := d.Stats().Polls; n != i {
				t.Fatalf("%d polls a nanosecond before %d intervals, want %d", n, i, i)
			}
			time.Sleep(time.Nanosecond)
			waitBubble()
			if n := d.Stats().Polls; n != i+1 {
				t.Fatalf("%d polls at %d intervals, want %d", n, i, i+1)
			}
		}

		admin := pipeClient(srv)
		defer admin.Close()
		if err := admin.SetExternalLoad(2); err != nil {
			t.Fatal(err)
		}
		// The ack's poll is due at the instant of the one before it, and a
		// bubble runs a timer due now once every goroutine blocks: read a
		// nanosecond on, so the report cannot overtake it.
		time.Sleep(iv + time.Nanosecond)
		waitBubble()
		reports, err := admin.Converge(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 1 || reports[0].Outcome != ConvergeSettled || reports[0].Members != 1 ||
			reports[0].LatencyMicros != iv.Microseconds() {
			t.Errorf("newest closed epoch %+v, want settled by the one member %v after the decision", reports, iv)
		}
		if got, n := tr.last(), d.Stats().Polls; got != 6 || n != k+3 {
			t.Errorf("target %d after %d polls, want 6 after %d (the one that brought it and the ack)", got, n, k+3)
		}
	})
}
