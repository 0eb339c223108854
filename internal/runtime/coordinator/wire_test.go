package coordinator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"procctl/internal/metrics"
)

func allocName(b []byte) string { return string(b) }

// checkRequestLine holds the scanner to encoding/json on one line: it
// may decline, but what it accepts json accepts to the same struct, and
// decodeRequest's verdict is json's.
func checkRequestLine(t *testing.T, line []byte) {
	t.Helper()
	var want Request
	werr := json.Unmarshal(line, &want)
	var got Request
	var spin float64
	if scanRequest(line, &got, &spin, allocName) {
		if werr != nil {
			t.Fatalf("scanner accepted %q, json rejects it: %v", line, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner decoded %q to %+v, json to %+v", line, got, want)
		}
	}
	got = Request{Op: "stale", Limit: 7} // decodeRequest must not keep what req held
	gerr := decodeRequest(line, &got, &spin, allocName)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("decodeRequest(%q) = %v, json.Unmarshal = %v", line, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeRequest(%q) = %+v, json = %+v", line, got, want)
	}
}

func checkResponseLine(t *testing.T, line []byte) {
	t.Helper()
	var want Response
	werr := json.Unmarshal(line, &want)
	var got Response
	if scanResponse(line, &got) {
		if werr != nil {
			t.Fatalf("scanner accepted %q, json rejects it: %v", line, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner decoded %q to %+v, json to %+v", line, got, want)
		}
	}
	got = Response{Error: "stale", Target: 7}
	gerr := decodeResponse(line, &got)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("decodeResponse(%q) = %v, json.Unmarshal = %v", line, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeResponse(%q) = %+v, json = %+v", line, got, want)
	}
}

// checkEncoding holds an append-encoder to json.Marshal plus a newline,
// byte for byte, and returns the line without the newline.
func checkEncoding(t *testing.T, v any, got []byte, gerr error) []byte {
	t.Helper()
	want, werr := json.Marshal(v)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("encoding %+v: append says %v, json.Marshal says %v", v, gerr, werr)
	}
	if gerr != nil {
		return nil
	}
	if string(got) != string(want)+"\n" {
		t.Fatalf("encoding %+v:\n append %q\n json   %q", v, got, want)
	}
	return got[:len(got)-1]
}

const (
	flagA = 1 << iota // request: spin_pct present; response: ok
	flagB             // response: carries a converge report (the json path)
)

func FuzzWireRequest(f *testing.F) {
	add := func(line, op, app string, spin float64, flags uint8) {
		f.Add([]byte(line), op, app, 4, 2, 1, 8, spin, uint64(3), uint64(40), uint64(7), flags)
	}
	// The everyday messages and the edges of the plain subset are the
	// committed corpus under testdata/fuzz; these add what is awkward there.
	add(`{"op":"poll","app":"a","spin_pct":1e999}`, "bogus op", "a\x00\xff", -0.0, flagA)
	add(`{"op":"poll","spin_pct":null,"procs":-0,"load":01,"limit":1.0,"since":1e2}`, OpSetLoad, "", 5e-324, flagA)
	add(` {"op" : "poll"} `, OpPoll, "", 1e-6, flagA)
	add(`{}`, "", "", 0, 0)
	add(`[1,2,3]`, "", "", 0, 0)
	f.Fuzz(func(t *testing.T, line []byte, op, app string, procs, weight, load, limit int,
		spin float64, applied, since, epoch uint64, flags uint8) {
		checkRequestLine(t, line)
		req := Request{Op: op, App: app, Procs: procs, Weight: weight, Load: load, Limit: limit,
			Applied: applied, Since: since, Epoch: epoch}
		if flags&flagA != 0 {
			req.SpinPct = &spin
		}
		got, err := appendRequest([]byte("kept"), &req)
		if !bytes.HasPrefix(got, []byte("kept")) {
			t.Fatalf("appendRequest dropped dst: %q", got)
		}
		if enc := checkEncoding(t, &req, got[4:], err); enc != nil {
			checkRequestLine(t, enc)
		}
	})
}

func FuzzWireResponse(f *testing.F) {
	add := func(line, errStr string, target int, flags uint8) {
		f.Add([]byte(line), errStr, target, uint64(9), flags)
	}
	// See FuzzWireRequest: the committed corpus carries the rest.
	add(`{"ok":null,"error":null,"target":null}`, "<&>\u2028é\xff", -1, 0)
	add(`{"ok":true,"target":8}x`, "", 1<<40, flagA)
	f.Fuzz(func(t *testing.T, line []byte, errStr string, target int, epoch uint64, flags uint8) {
		checkResponseLine(t, line)
		resp := Response{OK: flags&flagA != 0, Error: errStr, Target: target, Epoch: epoch}
		if flags&flagB != 0 {
			resp.Converge = []ConvergeInfo{{Members: target, Straggler: errStr}}
		}
		got, err := appendResponse(nil, &resp)
		if enc := checkEncoding(t, &resp, got, err); enc != nil {
			checkResponseLine(t, enc)
		}
	})
}

// Lines assembled from the protocol's own keys and from literals on both
// sides of every rule of the plain subset: a coverage-guided fuzzer
// reaches these combinations slowly, a seeded generator at once.
func TestWireScannersAgainstJSONGenerated(t *testing.T) {
	strs := []string{`"poll"`, `"register"`, `"bogus"`, `"fft"`, `""`, `"a b"`, `"a\"b"`, `"a\\b"`, `"<"`, `"é"`, "\"a\tb\"", "\"\x7f\"", `"a`}
	ints := []string{`0`, `1`, `-0`, `-1`, `01`, `007`, `16`, `999999999`, `1000000000`, `18446744073709551616`, `1.0`, `1e2`}
	floats := []string{`0`, `100`, `12.5`, `-12.5e-3`, `1.`, `.5`, `1.e2`, `1E-2`, `1e+2`, `1e`, `1e-`, `1e999`, `01.5`, `-`, `+1`, `0x10`, `Inf`, `NaN`, `1_0`}
	bools := []string{`true`, `false`, `True`, `tru`, `truex`, `1`}
	other := []string{`null`, `{}`, `[]`, `{"a":1}`, ``}
	// "shards", "busy" and "retry_after_ms" are older peers' keys: the
	// scanners decline them, and json decodes around them.
	fields := []struct {
		key    string
		values []string
	}{
		{"op", strs}, {"app", strs}, {"error", strs}, {"spin_pct", floats}, {"shards", bools}, {"ok", bools}, {"busy", bools},
		{"procs", ints}, {"weight", ints}, {"load", ints}, {"limit", ints}, {"applied_epoch", ints}, {"since", ints},
		{"epoch", ints}, {"target", ints}, {"retry_after_ms", ints}, {"status", other}, {"Op", strs}, {"x", ints}, {"", other},
	}
	pools := [][]string{strs, ints, floats, bools, other}
	rng := rand.New(rand.NewSource(1))
	// usually picks the well-formed first choice, sometimes any other.
	usually := func(from ...string) string {
		if rng.Intn(12) > 0 {
			return from[0]
		}
		return from[rng.Intn(len(from))]
	}
	accepted := 0
	for i := 0; i < 50000; i++ {
		var b strings.Builder
		b.WriteString(usually("{", " {", "", "[", "{{"))
		for n := rng.Intn(5); n >= 0; n-- {
			f := fields[rng.Intn(len(fields))]
			values := f.values
			if rng.Intn(12) == 0 {
				values = pools[rng.Intn(len(pools))]
			}
			b.WriteString(`"` + f.key + `"` + usually(":", ": ", "", "=") + values[rng.Intn(len(values))])
			if n > 0 {
				b.WriteString(usually(",", ", ", ",,", ""))
			}
		}
		b.WriteString(usually("}", "} ", "", "}}", "}x", ",}"))
		line := []byte(b.String())
		checkRequestLine(t, line)
		checkResponseLine(t, line)
		var req Request
		var spin float64
		if scanRequest(line, &req, &spin, allocName) || scanResponse(line, new(Response)) {
			accepted++
		}
	}
	if accepted < 1000 {
		t.Errorf("the scanners accepted only %d of the generated lines: the generator has drifted off the plain subset", accepted)
	}
}

// The messages a fleet exchanges all day must stay on the scanner: a
// decline is correct but costs the allocations the codec exists to avoid.
func TestWireFleetTrafficIsPlain(t *testing.T) {
	spin := 12.5
	for _, req := range []Request{
		{Op: OpPoll, App: "app-00017-3fa2c1"},
		{Op: OpPoll, App: "fft", SpinPct: &spin, Applied: 41},
		{Op: OpRegister, App: "fft", Procs: 16, Weight: 3, SpinPct: new(float64), Applied: 2},
		{Op: OpUnregister, App: "fft"},
		{Op: OpSetLoad, Load: 2},
		{Op: OpStatus},
		{Op: OpEvents, Limit: 100, Since: 42, Epoch: 7},
	} {
		line, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		var slot float64
		if !scanRequest(line, &got, &slot, allocName) {
			t.Errorf("scanner declined %s", line)
		}
	}
	for _, resp := range []Response{
		{OK: true},
		{OK: true, Target: 8, Epoch: 12},
		errResp(errLineTooLong),
	} {
		line, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if !scanResponse(line, &got) {
			t.Errorf("scanner declined %s", line)
		}
	}
}

func TestLineReader(t *testing.T) {
	long := strings.Repeat("x", 3000)
	in := "a\n\nbc\n" + long + "\nlast"
	for _, chunk := range []int{1, 7, 512, 1 << 20} {
		lr := lineReader{r: chunkReader{strings.NewReader(in), chunk}}
		for _, want := range []string{"a", "", "bc", long, "last"} {
			got, err := lr.readLine()
			if err != nil || string(got) != want {
				t.Fatalf("chunk %d: readLine = %.20q, %v; want %.20q", chunk, got, err, want)
			}
		}
		if _, err := lr.readLine(); err != io.EOF {
			t.Fatalf("chunk %d: after the last line: %v, want EOF", chunk, err)
		}
	}

	// A megabyte without a newline is refused, holding at most the cap.
	lr := lineReader{r: strings.NewReader(strings.Repeat("y", 1<<20)), max: maxRequestLine}
	if _, err := lr.readLine(); err != errLineTooLong {
		t.Fatalf("unterminated megabyte: %v, want errLineTooLong", err)
	}
	if cap(lr.buf) > maxRequestLine {
		t.Errorf("reader buffered %d bytes, cap is %d", cap(lr.buf), maxRequestLine)
	}
	// The longest line that fits is the cap, newline included.
	lr = lineReader{r: strings.NewReader(strings.Repeat("z", maxRequestLine-1) + "\n"), max: maxRequestLine}
	if line, err := lr.readLine(); err != nil || len(line) != maxRequestLine-1 {
		t.Fatalf("line of exactly the cap: %d bytes, %v", len(line), err)
	}
}

// chunkReader delivers at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// An over-long request is answered once and the connection dropped.
func TestServerBoundsRequestLine(t *testing.T) {
	srv, sock := startServer(t, 8)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		// The server stops reading at the cap; the rest fails or is dropped.
		_, _ = conn.Write(bytes.Repeat([]byte("x"), 1<<20))
	}()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := lineReader{r: conn}
	line, err := rd.readLine()
	if err != nil {
		t.Fatalf("no reply to an over-long line: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil || resp.OK || !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("reply %q (%v), want an error naming the bound", line, err)
	}
	if _, err := rd.readLine(); err == nil {
		t.Fatal("connection still open after an over-long line")
	}
	if v, _ := srv.coord.Metrics().Value(metrics.Name("coordinator_rpc_errors_total", "op", "unknown")); v != 1 {
		t.Errorf(`coordinator_rpc_errors_total{op="unknown"} = %d, want 1`, v)
	}
}

// Ops outside the closed set share one series; they used to mint two
// each (and one with a space in it panicked the registry).
func TestServerUnknownOpsMintNoSeries(t *testing.T) {
	srv, sock := startServer(t, 8)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.roundTrip(&Request{Op: "two words"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	before := len(srv.coord.Snapshot().Metrics)
	for i := 0; i < 1000; i++ {
		if _, err := c.roundTrip(&Request{Op: fmt.Sprintf("garbage-%d", i)}); err == nil {
			t.Fatal("unknown op accepted")
		}
	}
	if after := len(srv.coord.Snapshot().Metrics); after != before {
		t.Errorf("1000 garbage ops grew the registry from %d to %d series", before, after)
	}
	if v, _ := srv.coord.Metrics().Value(metrics.Name("coordinator_rpcs_total", "op", "unknown")); v != 1001 {
		t.Errorf(`coordinator_rpcs_total{op="unknown"} = %d, want 1001`, v)
	}
}

// An old client — encoding/json's stream encoder and decoder, as every
// client before the line codec — against the new server: every op is
// understood, and every reply is byte for byte what json.Encoder writes.
func TestOldClientNewServer(t *testing.T) {
	_, sock := startServer(t, 8)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	enc := json.NewEncoder(conn)
	rd := lineReader{r: conn}
	spin := 37.5
	for _, tc := range []struct {
		req  Request
		want string // the exact reply, when it is deterministic
	}{
		{Request{Op: OpRegister, App: "old", Procs: 8, Weight: 2, SpinPct: &spin}, `{"ok":true,"target":8,"epoch":1}`},
		{Request{Op: OpPoll, App: "old", SpinPct: &spin, Applied: 1}, `{"ok":true,"target":8,"epoch":1}`},
		{Request{Op: OpPoll, App: "ghost"}, `{"ok":false,"error":"app \"ghost\" not registered on this connection"}`},
		{Request{Op: OpSetLoad, Load: 2}, `{"ok":true}`},
		{Request{Op: OpPoll, App: "old"}, `{"ok":true,"target":6,"epoch":2}`},
		{Request{Op: OpStatus}, ""},
		{Request{Op: OpMetrics}, ""},
		{Request{Op: OpEvents, Limit: 10, Since: 1}, ""},
		{Request{Op: OpConverge, Limit: 4}, ""},
		{Request{Op: "bogus"}, `{"ok":false,"error":"unknown op \"bogus\""}`},
		{Request{Op: OpUnregister, App: "old"}, `{"ok":true}`},
	} {
		if err := enc.Encode(&tc.req); err != nil {
			t.Fatal(err)
		}
		line, err := rd.readLine()
		if err != nil {
			t.Fatalf("%s: %v", tc.req.Op, err)
		}
		if tc.want != "" && string(line) != tc.want {
			t.Errorf("%s: reply %s, want %s", tc.req.Op, line, tc.want)
		}
		var resp Response
		if err := json.NewDecoder(bytes.NewReader(line)).Decode(&resp); err != nil {
			t.Fatalf("%s: reply %.80q: %v", tc.req.Op, line, err)
		}
		if again, _ := json.Marshal(&resp); string(again) != string(line) {
			t.Errorf("%s: reply is not json.Encoder's bytes:\n got  %.200s\n want %.200s", tc.req.Op, line, again)
		}
	}
	// What the old decoder tolerated inside one line still decodes.
	if _, err := io.WriteString(conn, " { \"OP\" : \"setload\" , \"load\" : 0 , \"later\" : [ ] } \r\n"); err != nil {
		t.Fatal(err)
	}
	if line, err := rd.readLine(); err != nil || string(line) != `{"ok":true}` {
		t.Errorf("spaced request: reply %q, %v", line, err)
	}
}

// The new client against an old daemon: encoding/json's stream decoder
// and encoder on the other end of the connection.
func TestNewClientOldServer(t *testing.T) {
	const oldBusy = `{"ok":false,"error":"busy: registration admission limit reached","busy":true,"retry_after_ms":500}`
	cconn, sconn := net.Pipe()
	seen := make(chan Request, 16) // every request of the test, so the stub never blocks
	go func() {
		defer sconn.Close()
		dec, enc := json.NewDecoder(sconn), json.NewEncoder(sconn)
		for {
			var req Request
			if dec.Decode(&req) != nil {
				return
			}
			seen <- req
			var resp Response
			switch req.Op {
			case OpRegister, OpPoll:
				resp = Response{OK: true, Target: req.Procs + 3, Epoch: req.Applied + 1}
			case OpStatus:
				resp = Response{OK: true, Status: &Status{Capacity: 8, Apps: []AppStatus{{Name: "a<b", Procs: 4}}}}
			case OpSetLoad:
				if _, err := io.WriteString(sconn, oldBusy+"\n"); err != nil {
					return
				}
				continue
			default:
				resp = errResp(fmt.Errorf("unknown op %q", req.Op))
			}
			if enc.Encode(&resp) != nil {
				return
			}
		}
	}()
	c := newClient(cconn)
	defer c.Close()
	spin := 1e-7 // outside the plain floats: the request takes the json path
	if target, epoch, err := c.registerEpoch("q\"é", 5, 2, &spin, 6); err != nil || target != 8 || epoch != 7 {
		t.Errorf("register = %d, %d, %v", target, epoch, err)
	}
	if got, want := <-seen, (Request{Op: OpRegister, App: "q\"é", Procs: 5, Weight: 2, SpinPct: &spin, Applied: 6}); !reflect.DeepEqual(got, want) {
		t.Errorf("old daemon decoded %+v, want %+v", got, want)
	}
	if target, epoch, err := c.PollEpoch("fft", 9); err != nil || target != 3 || epoch != 10 {
		t.Errorf("poll = %d, %d, %v", target, epoch, err)
	}
	if got, want := <-seen, (Request{Op: OpPoll, App: "fft", Applied: 9}); !reflect.DeepEqual(got, want) {
		t.Errorf("old daemon decoded %+v, want %+v", got, want)
	}
	if st, err := c.Status(); err != nil || st.Capacity != 8 || len(st.Apps) != 1 || st.Apps[0].Name != "a<b" {
		t.Errorf("status = %+v, %v", st, err)
	}
	// An older daemon could shed a request with a busy reply. The scanner
	// declines its two extra keys, json decodes around them, and the
	// client returns an ordinary error with the daemon's reason.
	if scanResponse([]byte(oldBusy), new(Response)) {
		t.Errorf("the scanner took %s: \"busy\" and \"retry_after_ms\" are not fields any more", oldBusy)
	}
	if err := c.SetExternalLoad(1); err == nil || err.Error() != "coordinator: busy: registration admission limit reached" {
		t.Errorf("setload = %v, want the daemon's busy reason as a plain error", err)
	}
	if err := c.Unregister("x"); err == nil || !strings.Contains(err.Error(), `unknown op "unregister"`) {
		t.Errorf("unregister = %v, want the daemon's error", err)
	}
}

// scriptConn is an in-memory connection for the allocation gates: each
// Write is answered by making `reply` readable, and neither direction
// allocates.
type scriptConn struct {
	net.Conn // nil: the deadline setters below are all the gates touch
	reply    []byte
	pending  []byte
	written  []byte
	steps    chan struct{} // when non-nil, Read waits for a step and Write reports one

	readDeadlines, writeDeadlines atomic.Int64 // calls to the setters
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.steps != nil && len(c.pending) == 0 {
		if _, ok := <-c.steps; !ok {
			return 0, io.EOF
		}
		c.pending = c.reply
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.written = append(c.written[:0], p...)
	if c.steps != nil {
		c.steps <- struct{}{}
	} else {
		c.pending = c.reply
	}
	return len(p), nil
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { c.readDeadlines.Add(1); return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { c.writeDeadlines.Add(1); return nil }
func (c *scriptConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// serveScript runs srv's connection handler on a scriptConn and returns it
// with a step that sends the handler one request line and returns its
// reply. The handler reads what the test "replies": the roles of
// scriptConn are swapped. Closing conn.steps hangs up.
func serveScript(srv *Server) (conn *scriptConn, step func(line string) string) {
	conn = &scriptConn{steps: make(chan struct{})}
	srv.handlers.Add(1)
	go srv.handle(&connState{conn: conn, owned: make(map[string]*remoteMember), accepted: time.Now()})
	return conn, func(line string) string {
		conn.reply = []byte(line + "\n")
		conn.steps <- struct{}{}
		<-conn.steps
		return string(conn.written)
	}
}

// A served poll arms no timer: the sweep bounds a connection's silence
// and its reply writes, so the handler never sets a deadline.
func TestServerPollSetsNoDeadline(t *testing.T) {
	srv, _ := startServer(t, 8)
	conn, step := serveScript(srv)
	defer close(conn.steps)
	step(`{"op":"register","app":"app-00017-3fa2c1","procs":4}`)
	r0, w0 := conn.readDeadlines.Load(), conn.writeDeadlines.Load()
	for i := 0; i < 1000; i++ {
		step(`{"op":"poll","app":"app-00017-3fa2c1","applied_epoch":1}`)
	}
	if r, w := conn.readDeadlines.Load()-r0, conn.writeDeadlines.Load()-w0; r != 0 || w != 0 {
		t.Errorf("1000 served polls set %d read and %d write deadlines, want none", r, w)
	}
}

// The server's whole path from a poll's line to its reply's write —
// framing, decode, lease touch, dispatch, spin, ack, encode — allocates
// nothing, with or without the optional fields.
func TestServerPollAllocatesNothing(t *testing.T) {
	srv, _ := startServer(t, 8)
	for _, tc := range []struct{ name, poll string }{
		{"bare", `{"op":"poll","app":"app-00017-3fa2c1"}`},
		{"ack+spin", `{"op":"poll","app":"app-00017-3fa2c1","spin_pct":33.333333333333336,"applied_epoch":1}`},
	} {
		conn, step := serveScript(srv)
		if got := step(`{"op":"register","app":"app-00017-3fa2c1","procs":4}`); !strings.HasPrefix(got, `{"ok":true,"target":4,"epoch":`) {
			t.Fatalf("%s: register reply %q", tc.name, got)
		}
		conn.reply = []byte(tc.poll + "\n")
		allocs := testing.AllocsPerRun(1000, func() {
			conn.steps <- struct{}{}
			<-conn.steps
		})
		if got := string(conn.written); !strings.HasPrefix(got, `{"ok":true,"target":4,"epoch":`) {
			t.Errorf("%s: poll reply %q", tc.name, got)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per served poll, want 0", tc.name, allocs)
		}
		close(conn.steps)
	}
}

// A served unregister+register pair of one name allocates the new
// registration's identity and nothing else: its remoteMember and its name.
// The registry's handle is the member itself and the convergence index
// holds values, so neither adds an object per registration — inline, where
// the register rebalances and opens an epoch, or batched, where it only
// marks the fleet dirty. (Under -race only the batched count is exact: the
// inline rebalance takes its working set from a sync.Pool.)
func TestReRegistrationAllocatesIdentityOnly(t *testing.T) {
	unregister := []byte(`{"op":"unregister","app":"app-00017-3fa2c1"}` + "\n")
	register := []byte(`{"op":"register","app":"app-00017-3fa2c1","procs":4}` + "\n")
	for _, batched := range []bool{false, true} {
		if raceDetector && !batched {
			continue
		}
		srv, _ := startServer(t, 8)
		if batched {
			defer srv.coord.StartBatching(time.Hour)()
		}
		conn, step := serveScript(srv)
		for i := 0; i < 4; i++ {
			step(fmt.Sprintf(`{"op":"register","app":"peer-%d","procs":4}`, i))
		}
		step(string(register[:len(register)-1]))
		allocs := testing.AllocsPerRun(1000, func() {
			conn.reply = unregister
			conn.steps <- struct{}{}
			<-conn.steps
			conn.reply = register
			conn.steps <- struct{}{}
			<-conn.steps
		})
		if got := string(conn.written); !strings.HasPrefix(got, `{"ok":true,"target":`) {
			t.Errorf("batched=%v: register reply %q", batched, got)
		}
		if allocs != 2 {
			t.Errorf("batched=%v: %v allocations per unregister+register, want 2 (the member and its name)", batched, allocs)
		}
		close(conn.steps)
	}
}

func TestClientPollAllocatesNothing(t *testing.T) {
	conn := &scriptConn{reply: []byte(`{"ok":true,"target":3,"epoch":12}` + "\n")}
	c := newClient(conn)
	var target int
	var epoch uint64
	var err error
	allocs := testing.AllocsPerRun(1000, func() {
		target, epoch, err = c.PollEpoch("app-00017-3fa2c1", 11)
	})
	if err != nil || target != 3 || epoch != 12 {
		t.Fatalf("PollEpoch = %d, %d, %v", target, epoch, err)
	}
	if want := `{"op":"poll","app":"app-00017-3fa2c1","applied_epoch":11}` + "\n"; string(conn.written) != want {
		t.Errorf("request %q, want %q", conn.written, want)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per PollEpoch, want 0", allocs)
	}
}

// Decoding a registration allocates the application's name and nothing
// else (the server then allocates the member that keeps it).
func TestRegisterDecodeAllocatesOnlyTheName(t *testing.T) {
	line := []byte(`{"op":"register","app":"app-00017-3fa2c1","procs":16,"weight":3,"spin_pct":12.5,"applied_epoch":4}`)
	var req Request
	var spin float64
	allocs := testing.AllocsPerRun(1000, func() {
		if err := decodeRequest(line, &req, &spin, allocName); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations per register decode, want 1", allocs)
	}
}
