package main

import (
	"bufio"
	"encoding/json"
	"io"
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

	// The pool's own registry saw the work too.
	ps := p.Metrics().Snapshot(0)
	if m := ps.Get(`pool_tasks_submitted_total{pool="e2e"}`); m == nil || m.Value != 8 {
		t.Errorf("pool submitted series = %+v, want 8", m)
	}
	if m := ps.Get(`pool_tasks_completed_total{pool="e2e"}`); m == nil || m.Value != 8 {
		t.Errorf("pool completed series = %+v, want 8", m)
	}
	if m := ps.Get(`pool_task_micros{pool="e2e"}`); m == nil || m.Count != 8 {
		t.Errorf("pool task histogram = %+v, want count 8", m)
	}
}
