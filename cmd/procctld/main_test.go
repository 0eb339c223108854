package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"procctl/internal/journal"
	"procctl/internal/runtime/coordinator"
	"procctl/internal/runtime/pool"
)

// TestMain runs procctld itself, on the arguments in PROCCTLD_ARGS (one a
// line), when startDaemon starts this binary.
func TestMain(m *testing.M) {
	if args := os.Getenv("PROCCTLD_ARGS"); args != "" {
		os.Args = append([]string{"procctld"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemonLog is what the tests read of procctld's JSON log, each line
// decoded over the ones before it.
type daemonLog struct {
	Msg, Err, Addr, Metrics string
	Capacity                int
}

// startDaemon runs procctld on args and -log-json, killed at cleanup, and
// returns its log up to the line whose msg is until.
func startDaemon(t *testing.T, until string, args ...string) daemonLog {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PROCCTLD_ARGS="+strings.Join(append(args, "-log-json"), "\n"))
	stderr, _ := cmd.StderrPipe() // fails only once Stderr is set or the process started
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	defer time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() }).Stop()
	var log daemonLog
	for sc := bufio.NewScanner(stderr); log.Msg != until && sc.Scan(); {
		json.Unmarshal(sc.Bytes(), &log)
	}
	if log.Msg != until {
		t.Fatalf("procctld %v never logged %q: %+v", args, until, log)
	}
	return log
}

// -capacity 0 runs at GOMAXPROCS with a journal as it does without one:
// the boot journals the resolved capacity, and the start line logs it.
func TestZeroCapacityBootsWithJournal(t *testing.T) {
	dir := t.TempDir()
	log := startDaemon(t, "procctld started", "-listen", "unix:"+dir+"/d.sock", "-capacity", "0", "-journal-dir", dir)
	res, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); log.Capacity != want || res.State.Capacity != want {
		t.Fatalf("logged capacity %d and journaled %d, want GOMAXPROCS %d", log.Capacity, res.State.Capacity, want)
	}
}

// runDaemon runs procctld on args and -log-json to its exit, killed after
// 10 s, and returns its log and exit error.
func runDaemon(t *testing.T, args ...string) (string, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "PROCCTLD_ARGS="+strings.Join(append(args, "-log-json"), "\n"))
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// procctld replaces a stale socket at its -listen path, and nothing else:
// a socket a live daemon answers on, or a regular file, makes it exit 1
// with an error naming the path.
func TestListenReplacesOnlyAStaleSocket(t *testing.T) {
	status := func(sock string) error {
		c, err := coordinator.Dial("unix", sock)
		if err != nil {
			return err
		}
		defer c.Close()
		_, err = c.Status()
		return err
	}
	t.Run("live", func(t *testing.T) {
		sock := t.TempDir() + "/d.sock"
		startDaemon(t, "procctld started", "-listen", "unix:"+sock)
		out, err := runDaemon(t, "-listen", "unix:"+sock)
		if code := exitCode(err); code == 0 || !strings.Contains(out, sock) {
			t.Errorf("second daemon on a live socket: exit %d (%v), log %q; want non-zero and the path named", code, err, out)
		}
		if err := status(sock); err != nil {
			t.Errorf("first daemon no longer answers: %v", err)
		}
	})
	t.Run("stale", func(t *testing.T) {
		sock := t.TempDir() + "/d.sock"
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		ln.(*net.UnixListener).SetUnlinkOnClose(false)
		ln.Close()
		startDaemon(t, "procctld started", "-listen", "unix:"+sock)
		if err := status(sock); err != nil {
			t.Errorf("daemon on a replaced stale socket does not answer: %v", err)
		}
	})
	t.Run("file", func(t *testing.T) {
		path := t.TempDir() + "/d.sock"
		if err := os.WriteFile(path, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runDaemon(t, "-listen", "unix:"+path)
		if code := exitCode(err); code == 0 || !strings.Contains(out, path) {
			t.Errorf("daemon on a regular file: exit %d (%v), log %q; want non-zero and the path named", code, err, out)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != "keep" {
			t.Errorf("regular file after the daemon ran: %q, %v; want it kept", b, err)
		}
	})
}

// exitCode is the exit status err reports, 0 for nil and -1 when the
// process did not exit by itself.
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		return -1
	}
	return 0
}

func TestSplitListen(t *testing.T) {
	cases := []struct {
		in      string
		network string
		addr    string
		wantErr bool
	}{
		{"unix:/tmp/x.sock", "unix", "/tmp/x.sock", false},
		{"tcp:localhost:7717", "tcp", "localhost:7717", false},
		{"tcp::7717", "tcp", ":7717", false},
		{"udp:x", "", "", true},
		{"nocolon", "", "", true},
	}
	for _, c := range cases {
		network, addr, err := splitListen(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("splitListen(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && (network != c.network || addr != c.addr) {
			t.Errorf("splitListen(%q) = %q %q, want %q %q", c.in, network, addr, c.network, c.addr)
		}
	}
}

// promLine matches one sample of the Prometheus text exposition:
// name, optional {labels}, and an integer value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?\d+)$`)

// parseExposition reads a text exposition into series-name -> value,
// failing the test on any line that is neither a comment nor a sample.
func parseExposition(t *testing.T, r io.Reader) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		v, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan exposition: %v", err)
	}
	return out
}

// TestMetricsEndToEnd runs the daemon, drives it with a live pool client
// over the socket, and checks that the /metrics exposition is parseable
// and reflects the traffic.
func TestMetricsEndToEnd(t *testing.T) {
	log := startDaemon(t, "introspection HTTP listener up",
		"-listen", "unix:"+t.TempDir()+"/d.sock", "-capacity", "4", "-metrics", "127.0.0.1:0")

	// A live application: an adaptive pool driven by the daemon over the
	// socket, exactly as a real client would run.
	client, err := coordinator.Dial("unix", log.Addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	p := pool.New(pool.Config{Name: "e2e", Workers: 3})
	d, err := client.DriveWith("e2e", p.Workers(), p, coordinator.DriveOptions{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		p.Submit(func() { <-done })
	}
	// A member's own target is served by the status op, not as a series.
	st, err := client.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if len(st.Apps) != 1 || st.Apps[0].Name != "e2e" || st.Apps[0].Target < 1 {
		t.Errorf("status apps = %+v, want e2e with a target >= 1", st.Apps)
	}
	// Let at least one poll round-trip happen so poll RPCs show up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := client.Metrics()
		if err != nil {
			t.Fatalf("metrics rpc: %v", err)
		}
		if m := snap.Get(`coordinator_rpcs_total{op="poll"}`); m != nil && m.Value >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no poll RPC recorded within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(log.Metrics)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	series := parseExposition(t, resp.Body)

	checks := []struct {
		name string
		min  int64
	}{
		{`coordinator_rpcs_total{op="register"}`, 1},
		{`coordinator_rpcs_total{op="poll"}`, 1},
		{`coordinator_rpcs_total{op="status"}`, 1},
		{`coordinator_rpcs_total{op="metrics"}`, 1},
		{`coordinator_rebalance_latency_micros_count{stage="total"}`, 1},
		{`coordinator_members`, 1},
		{`coordinator_capacity`, 4},
		{`coordinator_targets_sum`, 1},
	}
	for _, c := range checks {
		v, ok := series[c.name]
		if !ok {
			t.Errorf("series %s missing from exposition", c.name)
			continue
		}
		if v < c.min {
			t.Errorf("%s = %d, want >= %d", c.name, v, c.min)
		}
	}

	for name := range series {
		if strings.Contains(name, `"e2e"`) {
			t.Errorf("series %s carries a member name as a label value", name)
		}
	}

	// Unregistering must take the member's target out of the fleet sum.
	d.Stop()
	resp2, err := http.Get(log.Metrics)
	if err != nil {
		t.Fatalf("GET /metrics after stop: %v", err)
	}
	defer resp2.Body.Close()
	after := parseExposition(t, resp2.Body)
	if v := after[`coordinator_targets_sum`]; v != 0 {
		t.Errorf("coordinator_targets_sum = %d after unregister, want 0", v)
	}
	if after[`coordinator_members`] != 0 {
		t.Errorf("coordinator_members = %d after unregister, want 0", after[`coordinator_members`])
	}

	close(done)
	p.Close()
	p.Wait()

	// The pool counted the work too.
	if st := p.Stats(); st.Submitted != 8 || st.Completed != 8 {
		t.Errorf("pool stats = %+v, want 8 submitted and 8 completed", st)
	}
}
