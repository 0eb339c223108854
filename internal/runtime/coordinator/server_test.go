package coordinator

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"procctl/internal/metrics"
	"procctl/internal/runtime/pool"
)

// startServer runs a coordinator daemon on a Unix socket in a temp dir.
func startServer(t testing.TB, capacity int) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "procctld.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(New(capacity), ln)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, sock
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

func TestServerRegisterPoll(t *testing.T) {
	_, sock := startServer(t, 8)
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

	target, err := c1.RegisterWeighted("alpha", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if target != 8 {
		t.Errorf("solo target %d, want 8", target)
	}
	if _, err := c2.RegisterWeighted("beta", 8, 0); err != nil {
		t.Fatal(err)
	}
	// After beta arrives, alpha's next poll sees the split.
	target, _, err = c1.PollEpoch("alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	if target != 4 {
		t.Errorf("alpha target %d after beta, want 4", target)
	}
}

func TestServerUnregister(t *testing.T) {
	_, sock := startServer(t, 8)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RegisterWeighted("a", 8, 0)
	c.RegisterWeighted("b", 8, 0)
	if err := c.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if target, _, _ := c.PollEpoch("a", 0); target != 8 {
		t.Errorf("target %d after unregister, want 8", target)
	}
	if err := c.Unregister("b"); err == nil {
		t.Error("double unregister accepted")
	}
}

func TestServerPollUnknown(t *testing.T) {
	_, sock := startServer(t, 8)
	c, _ := Dial("unix", sock)
	defer c.Close()
	if _, _, err := c.PollEpoch("ghost", 0); err == nil {
		t.Error("poll of unregistered app succeeded")
	}
}

func TestServerRegisterValidation(t *testing.T) {
	_, sock := startServer(t, 8)
	c, _ := Dial("unix", sock)
	defer c.Close()
	if _, err := c.RegisterWeighted("", 4, 0); err == nil {
		t.Error("empty app name accepted")
	}
	if _, err := c.RegisterWeighted("x", 0, 0); err == nil {
		t.Error("zero procs accepted")
	}
}

// A register reply carries the member's pending target out of the one
// word it shares with the epoch, and inside a batch window that target
// is procs itself: a count the word's target bits cannot hold used to
// come back truncated (65536 as 0, 70000 as 4464). It is refused.
func TestServerRegisterRefusesProcsATargetCannotCarry(t *testing.T) {
	srv, sock := startServer(t, 8)
	t.Cleanup(srv.coord.StartBatching(time.Hour))
	c, _ := Dial("unix", sock)
	defer c.Close()
	for _, procs := range []int{maxTarget + 1, 70000} {
		if target, err := c.RegisterWeighted("big", procs, 0); err == nil {
			t.Errorf("register with procs %d answered target %d, want an error reply", procs, target)
		}
	}
	if got := srv.coord.Members(); len(got) != 0 {
		t.Errorf("refused registrations left %v registered", got)
	}
	if target, err := c.RegisterWeighted("big", maxTarget, 0); err != nil || target != maxTarget {
		t.Errorf("register with procs %d = target %d, %v; want it to run uncontrolled until the first flush", maxTarget, target, err)
	}
}

func TestServerConnDropUnregisters(t *testing.T) {
	srv, sock := startServer(t, 8)
	c1, _ := Dial("unix", sock)
	c2, _ := Dial("unix", sock)
	defer c2.Close()
	c1.RegisterWeighted("doomed", 8, 0)
	c2.RegisterWeighted("survivor", 8, 0)
	if target, _, _ := c2.PollEpoch("survivor", 0); target != 4 {
		t.Fatalf("pre-drop target %d", target)
	}
	c1.Close()
	// The server notices the drop asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if target, _, _ := c2.PollEpoch("survivor", 0); target == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead connection's registration never cleaned up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = srv
}

func TestServerSetLoadAndStatus(t *testing.T) {
	_, sock := startServer(t, 8)
	c, _ := Dial("unix", sock)
	defer c.Close()
	c.RegisterWeighted("app", 8, 0)
	if err := c.SetExternalLoad(6); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Capacity != 8 || st.ExternalLoad != 6 {
		t.Errorf("status %+v", st)
	}
	if len(st.Apps) != 1 || st.Apps[0].Name != "app" || st.Apps[0].Target != 2 {
		t.Errorf("apps %+v", st.Apps)
	}
}

func TestServerUnknownOp(t *testing.T) {
	_, sock := startServer(t, 8)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := newClient(conn)
	if _, err := c.roundTrip(&Request{Op: "bogus"}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestServerTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(New(4), ln)
	go srv.Serve()
	defer srv.Close()
	c, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if target, err := c.RegisterWeighted("tcp-app", 4, 0); err != nil || target != 4 {
		t.Errorf("target=%d err=%v", target, err)
	}
}

func TestClientDrive(t *testing.T) {
	_, sock := startServer(t, 4)
	cOther, _ := Dial("unix", sock)
	defer cOther.Close()

	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := pool.New(pool.Config{Name: "driven", Workers: 4})
	d, err := c.DriveWith("driven", 4, p, DriveOptions{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if p.Target() != 4 {
		t.Errorf("initial driven target %d", p.Target())
	}
	// A second app arrives; the poller must shrink the pool's target.
	cOther.RegisterWeighted("other", 4, 0)
	deadline := time.Now().Add(5 * time.Second)
	for p.Target() != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.Target() != 2 {
		t.Fatalf("driven target %d, want 2", p.Target())
	}
	d.Stop()
	d.Stop() // idempotent
	// After stop, the app is unregistered: the other app gets everything.
	if target, _, _ := cOther.PollEpoch("other", 0); target != 4 {
		t.Errorf("other's target %d after stop, want 4", target)
	}
	p.Close()
	p.Wait()
}

func TestServerCloseDropsConnections(t *testing.T) {
	srv, sock := startServer(t, 8)
	c, _ := Dial("unix", sock)
	c.RegisterWeighted("a", 4, 0)
	srv.Close()
	if _, _, err := c.PollEpoch("a", 0); err == nil {
		t.Error("poll succeeded after server close")
	}
	c.Close()
}

// A name that cannot be a metric label value — a space, a quote, a
// brace, a newline, or just too long — is refused at register with an
// error reply and counted as a register error. It used to reach
// metrics.Name and panic the daemon (names were label values then; they
// no longer are, and the check stays for the journal and the wire).
func TestServerRefusesUnusableAppNames(t *testing.T) {
	srv, sock := startServer(t, 8)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := []string{"a b", `a"b`, "a{b}", "a\nb", "a/b", "é", strings.Repeat("x", maxAppName+1)}
	for _, name := range bad {
		if _, err := c.RegisterWeighted(name, 4, 0); err == nil || !strings.Contains(err.Error(), "app name") {
			t.Errorf("Register(%q): err = %v, want the name refused", name, err)
		}
	}
	for _, name := range []string{"web", "app-00017-3fa2c1", "Batch_2.v1:blue", strings.Repeat("x", maxAppName)} {
		if _, err := c.RegisterWeighted(name, 4, 0); err != nil {
			t.Errorf("Register(%q): %v", name, err)
		}
	}
	reg := srv.coord.Metrics()
	if v, _ := reg.Value(metrics.Name("coordinator_rpc_errors_total", "op", OpRegister)); v != int64(len(bad)) {
		t.Errorf(`coordinator_rpc_errors_total{op="register"} = %d, want %d`, v, len(bad))
	}
	if n := len(srv.coord.Members()); n != 4 {
		t.Errorf("%d members registered, want the 4 well-named ones", n)
	}
	// The connection survived every refusal, and poll has no such check:
	// an unregistered name is simply not found.
	if _, _, err := c.PollEpoch("a b", 0); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf(`Poll("a b"): err = %v, want "not registered"`, err)
	}
}

// fuzzConn is an in-memory connection whose peer sends a fixed byte string
// and then hangs up: reads drain in and end in io.EOF, writes collect in
// out.
type fuzzConn struct {
	net.Conn // nil: the handler touches only the methods below
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *fuzzConn) Close() error                { return nil }

// serveBytes runs the server's connection handler over one connection
// that sends in, and returns everything the server wrote back.
func serveBytes(t *testing.T, srv *Server, in []byte) []byte {
	t.Helper()
	conn := &fuzzConn{in: bytes.NewReader(in)}
	done := make(chan struct{})
	srv.handlers.Add(1)
	go func() {
		defer close(done)
		srv.handle(&connState{conn: conn, owned: make(map[string]*remoteMember), accepted: time.Now()})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("the handler did not return at EOF of %q", in)
	}
	return conn.out.Bytes()
}

// FuzzServerConn feeds arbitrary bytes to a fresh server's connection
// handler. Whatever arrives, the handler must not panic, must return once
// the peer hangs up, must answer only in lines that decode as a Response,
// and must mint no metric series beyond those a warm-up that sends every
// op once has created: the socket is hostile input. A reply that carries
// an epoch (register, poll) must carry a target of at least one, the
// starvation floor; the server's capacity is more than any one
// registration can claim, so a lone register is answered its own process
// count.
func FuzzServerConn(f *testing.F) {
	var warmUp bytes.Buffer
	for _, op := range wireOps {
		fmt.Fprintf(&warmUp, `{"op":%q,"app":"warm","procs":4,"applied_epoch":1}`+"\n", op)
	}
	f.Add([]byte(`{"op":"register","app":"fft","procs":4}` + "\n" + `{"op":"poll","app":"fft","spin_pct":12.5,"applied_epoch":1}` + "\n" +
		`{"op":"unregister","app":"fft"}` + "\n"))
	// Found by hand before the fuzzer existed: a register of more processes
	// than a target can hold was answered target 0, and an app name with a
	// space panicked the registry.
	f.Add([]byte(`{"op":"register","app":"big","procs":65536}` + "\n" + `{"op":"poll","app":"big"}` + "\n"))
	f.Add([]byte(`{"op":"register","app":"two words","procs":4}` + "\n" + `{"op":"two words"}` + "\n"))
	f.Add([]byte(`{"op":"poll","app":"` + strings.Repeat("x", maxRequestLine) + `"}` + "\n"))
	f.Add([]byte(`{"op":"register","app":"a","procs":2}{"op":"poll","app":"a"}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		srv := NewServer(New(2*maxTarget), nil)
		serveBytes(t, srv, warmUp.Bytes())
		series := len(srv.coord.Snapshot().Metrics)
		out := serveBytes(t, srv, in)
		if len(out) > 0 && out[len(out)-1] != '\n' {
			t.Fatalf("the last reply is not a whole line: %q", out)
		}
		for len(out) > 0 {
			i := bytes.IndexByte(out, '\n')
			var resp Response
			if err := decodeResponse(out[:i], &resp); err != nil {
				t.Fatalf("reply %q does not decode: %v", out[:i], err)
			}
			if resp.Epoch > 0 && resp.Target < 1 {
				t.Fatalf("reply %q hands out no processor", out[:i])
			}
			out = out[i+1:]
		}
		if n := len(srv.coord.Snapshot().Metrics); n > series {
			t.Fatalf("the input grew the registry from %d to %d series", series, n)
		}
	})
}
