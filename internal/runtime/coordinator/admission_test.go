package coordinator

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"
)

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
	if got := len(srv.coord.Members()); got != 0 {
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
	if _, err := c1.RegisterWeighted("first", 4, 0); err != nil {
		t.Fatal(err)
	}

	c2, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = c2.RegisterWeighted("second", 4, 0)
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
		_, err = c3.RegisterWeighted("third", 4, 0)
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
	if _, err := c.RegisterWeighted("wired", 4, 0); err != nil {
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

func TestPollBenchFastPathZeroAlloc(t *testing.T) {
	b := newPollBench(64)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Poll(7, 1)
	})
	if allocs != 0 {
		t.Errorf("poll fast path allocates %.1f per op, want 0", allocs)
	}
}
