package coordinator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func TestBatchingCoalescesRegistrations(t *testing.T) {
	c := New(16)
	stop := c.StartBatching(40 * time.Millisecond)
	defer stop()
	const n = 10
	members := make([]*fakeMember, n)
	for i := range members {
		members[i] = &fakeMember{name: fmt.Sprintf("burst%d", i), workers: 4}
		c.Register(members[i])
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		total := 0
		for _, m := range members {
			total += m.got()
		}
		if total == 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batched targets never converged: sum %d, want 16", total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// All n registrations landed within (at most a couple of) windows,
	// far fewer epochs than events.
	if reb := c.Rebalances(); reb >= n {
		t.Errorf("rebalances = %d for %d batched registrations, want coalescing", reb, n)
	}
	if v := c.met.batchFlushes.Value(); v < 1 {
		t.Errorf("batch flushes = %d, want >= 1", v)
	}
	if v := c.met.batchCoalesced.Value(); v < 1 {
		t.Errorf("batch coalesced = %d, want >= 1", v)
	}
}

func TestBatchingStopFlushesPendingWork(t *testing.T) {
	c := New(8)
	stop := c.StartBatching(time.Hour) // never fires on its own
	m := &fakeMember{name: "late", workers: 8}
	c.Register(m)
	if got := m.got(); got != 0 {
		t.Fatalf("target pushed before any flush: %d", got)
	}
	stop()
	if got := m.got(); got != 8 {
		t.Errorf("target after stop-flush = %d, want 8", got)
	}
	// After stop, events rebalance inline again.
	m2 := &fakeMember{name: "after", workers: 8}
	c.Register(m2)
	if got := m2.got(); got != 4 {
		t.Errorf("post-batching inline target = %d, want 4", got)
	}
}

// White-box: a full admission semaphore turns OpRegister into a
// retryable busy reply without touching the registry.
func TestAdmitLimitShedsRegistration(t *testing.T) {
	srv, _ := startServerWith(t, 8, ServerConfig{AdmitLimit: 1})
	srv.admit <- struct{}{} // occupy the only admission slot
	cs := &connState{owned: make(map[string]*remoteMember)}
	resp := srv.dispatch(&Request{Op: OpRegister, App: "shedme", Procs: 4}, cs, time.Now())
	if resp.OK || !resp.Busy {
		t.Fatalf("register with full admission = %+v, want busy", resp)
	}
	if resp.RetryAfterMs <= 0 {
		t.Errorf("busy reply RetryAfterMs = %d, want > 0", resp.RetryAfterMs)
	}
	if got := len(srv.Coordinator().Members()); got != 0 {
		t.Errorf("shed registration still registered %d members", got)
	}
	if v := srv.shedReg.Value(); v != 1 {
		t.Errorf("shed registrations counter = %d, want 1", v)
	}
	<-srv.admit // release; the next registration is admitted
	resp = srv.dispatch(&Request{Op: OpRegister, App: "shedme", Procs: 4}, cs, time.Now())
	if !resp.OK {
		t.Fatalf("register after release failed: %+v", resp)
	}
	// Admitted registrations are the served ones less the refused.
	if reg := srv.rpcs[OpRegister]; reg.served.Value()-reg.rejected.Value() != 1 {
		t.Errorf("registrations served %d, rejected %d: want 1 admitted", reg.served.Value(), reg.rejected.Value())
	}
}

func TestMaxConnsShedsWholeConnection(t *testing.T) {
	_, sock := startServerWith(t, 8, ServerConfig{MaxConns: 1})
	c1, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Register("first", 4); err != nil {
		t.Fatal(err)
	}

	c2, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = c2.Register("second", 4)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("register over the connection cap: err = %v, want ErrBusy", err)
	}

	// Once the first connection is gone the cap has room again; the
	// server needs a moment to reap the closed connection.
	c1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c3, err := Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c3.Register("third", 4)
		if err == nil {
			c3.Close()
			return
		}
		c3.Close()
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("retry register: err = %v, want nil or ErrBusy", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("connection slot never freed after close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A request that still carries the removed "shards" field — an older
// procctl-top -shards — is a plain status request: the field is unknown,
// so the line goes through the encoding/json fallback, and the reply has
// no shard table or admission block to put in it.
func TestStatusIgnoresShardsField(t *testing.T) {
	_, sock := startServerWith(t, 8, ServerConfig{AdmitLimit: 4})
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("wired", 4); err != nil {
		t.Fatal(err)
	}
	plain, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}

	line := []byte(`{"op":"status","shards":true}`)
	var req Request
	var spin float64
	if scanRequest(line, &req, &spin, allocName) {
		t.Errorf("the scanner took %s: \"shards\" is not a field any more", line)
	}
	if err := decodeRequest(line, &req, &spin, allocName); err != nil || req != (Request{Op: OpStatus}) {
		t.Fatalf("decodeRequest(%s) = %+v, %v; want a plain status request", line, req, err)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	rd := lineReader{r: conn}
	reply, err := rd.readLine()
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(reply, &resp); err != nil || !resp.OK || resp.Status == nil {
		t.Fatalf("reply %.200s: %v", reply, err)
	}
	if bytes.Contains(reply, []byte(`"shards"`)) || bytes.Contains(reply, []byte(`"admission"`)) {
		t.Errorf("status reply still carries a shard table or admission block: %.300s", reply)
	}
	if len(resp.Status.Apps) != len(plain.Apps) || resp.Status.Apps[0].Name != "wired" {
		t.Errorf("status with the old field lists %+v, a plain one %+v", resp.Status.Apps, plain.Apps)
	}
}

func TestDriveWithRetriesBusyRegistration(t *testing.T) {
	_, sock := startServerWith(t, 8, ServerConfig{MaxConns: 1})
	holder, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Register("holder", 4); err != nil {
		t.Fatal(err)
	}

	late, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	done := make(chan error, 1)
	go func() {
		d, err := late.DriveWith("late", 4, &fakeMember{name: "late", workers: 4}, DriveOptions{
			Interval:      50 * time.Millisecond,
			BackoffMin:    20 * time.Millisecond,
			BackoffMax:    100 * time.Millisecond,
			AdmitPatience: 10 * time.Second,
		})
		if err == nil {
			d.Stop()
		}
		done <- err
	}()

	// Give the driver time to be shed at least once, then make room.
	time.Sleep(150 * time.Millisecond)
	holder.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("DriveWith never recovered from busy: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("DriveWith still retrying after the connection slot freed")
	}
}

// White-box: an admission-limit shed leaves the connection live, so the
// retried registration must go out on it again. Re-dialing would close it,
// and the daemon would unregister every other app the client holds there.
func TestRetriedRegistrationKeepsOtherApps(t *testing.T) {
	srv, sock := startServerWith(t, 8, ServerConfig{AdmitLimit: 1})
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("a", 2); err != nil {
		t.Fatal(err)
	}
	srv.admit <- struct{}{} // occupy the only admission slot
	done := make(chan error, 1)
	go func() {
		d, err := c.DriveWith("b", 2, &fakeMember{name: "b", workers: 2}, DriveOptions{
			Interval:      time.Hour,
			BackoffMin:    10 * time.Millisecond,
			BackoffMax:    20 * time.Millisecond,
			AdmitPatience: 10 * time.Second,
		})
		if err == nil {
			d.Stop()
		}
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.shedReg.Value() >= 2 }, "b was never shed twice")
	<-srv.admit // free the slot
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("DriveWith(b) after the slot freed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("DriveWith(b) still retrying after the slot freed")
	}
	if got := srv.Coordinator().Members(); len(got) != 1 || got[0] != "a" {
		t.Errorf("members after b came and went = %v, want a still registered", got)
	}
	if _, err := c.Poll("a"); err != nil {
		t.Errorf("poll a on its own connection: %v", err)
	}
}

func TestPollBenchFastPathZeroAlloc(t *testing.T) {
	b := newPollBench(64)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Poll(7, 1)
	})
	if allocs != 0 {
		t.Errorf("poll fast path allocates %.1f per op, want 0", allocs)
	}
}
