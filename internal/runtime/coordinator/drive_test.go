package coordinator

import (
	"bufio"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// trackingTargeter records the most recent target it was handed.
type trackingTargeter struct {
	mu sync.Mutex
	v  int
}

func (t *trackingTargeter) SetTargetEpoch(n int, _ uint64) bool {
	t.mu.Lock()
	t.v = n
	t.mu.Unlock()
	return true
}
func (t *trackingTargeter) ResetEpoch() {}
func (t *trackingTargeter) last() int   { t.mu.Lock(); defer t.mu.Unlock(); return t.v }

// fastDrive polls every 50 ms instead of every DefaultPollInterval.
func fastDrive() DriveOptions { return DriveOptions{Interval: 50 * time.Millisecond} }

func TestDriveWithSurvivesDaemonRestart(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(New(8), ln)
	go srv.Serve()

	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var tr trackingTargeter
	d, err := c.DriveWith("app", 8, &tr, fastDrive())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if tr.last() != 8 {
		t.Fatalf("initial target %d, want the full capacity 8", tr.last())
	}
	waitFor(t, 3*time.Second, func() bool { return d.Stats().Polls >= 1 },
		"driver never polled the healthy daemon")

	// Daemon goes down; the driver must notice and enter degraded mode.
	srv.Close()
	waitFor(t, 3*time.Second, func() bool {
		s := d.Stats()
		return s.Degraded && s.PollErrors >= 1
	}, "driver never noticed the daemon dying")

	// Daemon comes back — with a different capacity, so only a true
	// re-registration can explain the new target the driver applies.
	ln2, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(New(4), ln2)
	go srv2.Serve()
	defer srv2.Close()

	waitFor(t, 5*time.Second, func() bool {
		s := d.Stats()
		return s.Reconnects >= 1 && !s.Degraded
	}, "driver never reconnected to the restarted daemon")
	waitFor(t, 3*time.Second, func() bool { return tr.last() == 4 },
		"driver never applied the restarted daemon's target")
	if got := srv2.coord.Members(); len(got) != 1 || got[0] != "app" {
		t.Errorf("restarted daemon's members = %v, want [app] re-registered", got)
	}
	s := d.Stats()
	if s.Redials < 1 {
		t.Errorf("Redials = %d, want >= 1", s.Redials)
	}
	if s.DegradedFor != 0 {
		t.Errorf("DegradedFor = %v after reconnecting, want 0", s.DegradedFor)
	}
}

// TestDriveStatsCount checks a driver's Stats across a daemon restart,
// which moves every count: the driver reads degraded while the daemon is
// down, and connected again on the restarted daemon's target.
func TestDriveStatsCount(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(New(8), ln)
	go srv.Serve()
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var tr trackingTargeter
	d, err := c.DriveWith("app", 8, &tr, fastDrive())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	waitFor(t, 3*time.Second, func() bool { return d.Stats().Polls >= 1 },
		"driver never polled the healthy daemon")
	srv.Close()
	waitFor(t, 3*time.Second, func() bool { return d.Stats().Degraded },
		"driver never went degraded")
	// The daemon stays down for a few redials; the driver stays degraded
	// through them.
	waitFor(t, 3*time.Second, func() bool { return d.Stats().Redials >= 2 },
		"driver never re-dialed the dead daemon")
	if s := d.Stats(); !s.Degraded || s.DegradedFor <= 0 || s.Target != 8 {
		t.Errorf("Stats = %+v with the daemon down: want degraded, for a while, holding target 8", s)
	}

	ln2, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(New(4), ln2)
	go srv2.Serve()
	defer srv2.Close()
	waitFor(t, 5*time.Second, func() bool {
		s := d.Stats()
		return s.Reconnects >= 1 && !s.Degraded && s.Target == 4
	}, "driver never reconnected to the restarted daemon and applied its target")
	d.Stop()
	s := d.Stats()
	if s.Polls < 1 || s.PollErrors < 1 || s.Redials < 2 || s.Reconnects < 1 || s.Degraded || s.DegradedFor != 0 || s.Target != 4 {
		t.Errorf("Stats = %+v after a restart: want every count moved, connected, target 4", s)
	}
}

// A restarted daemon that refuses the driver's re-registration leaves it
// degraded, not reconnected, and the driver keeps re-dialing on its
// doubling backoff. The fake daemon answers the first registration, drops
// the connection, and refuses every later request. The driver's first
// poll fails one interval after the drop, and it re-dials at once, then
// after jittered waits of at least 100, 200, 400 and 800 ms: at most five
// dials in the 2 s after the drop. Wall clock: the re-dials go through
// netpoll, which stops a synctest bubble's clock.
func TestDriveReconnectRefusedStaysDegraded(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int64
	dropped := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			first := dials.Add(1) == 1
			go func() {
				defer conn.Close()
				rd := bufio.NewReader(conn)
				for {
					if _, err := rd.ReadBytes('\n'); err != nil {
						return
					}
					if first {
						conn.Write([]byte(`{"ok":true,"target":4}` + "\n"))
						conn.Close()
						close(dropped)
						return
					}
					if _, err := conn.Write([]byte(`{"ok":false,"error":"register refused"}` + "\n")); err != nil {
						return
					}
				}
			}()
		}
	}()

	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var tr trackingTargeter
	d, err := c.DriveWith("app", 8, &tr, fastDrive())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	<-dropped
	time.Sleep(2 * time.Second)
	redials := dials.Load() - 1
	if redials < 1 || redials > 5 {
		t.Errorf("driver dialed %d times in the 2 s after the drop, want 1 to 5 under the doubling backoff", redials)
	}
	if s := d.Stats(); !s.Degraded || s.Reconnects != 0 {
		t.Errorf("stats = %+v, want degraded with no reconnect: every registration was refused", s)
	}
}
