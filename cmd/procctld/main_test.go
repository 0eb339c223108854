package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"procctl/internal/runtime/coordinator"
	"procctl/internal/runtime/pool"
)

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

// TestMetricsEndToEnd runs the daemon's pieces in-process — coordinator,
// socket server, HTTP metrics listener — drives them with a live pool
// client over the socket, and checks that the /metrics exposition is
// parseable and reflects the traffic.
func TestMetricsEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord := coordinator.New(4)
	srv := coordinator.NewServer(coord, ln)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve()
	}()
	defer func() {
		srv.Close()
		wg.Wait()
	}()

	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("metrics listen: %v", err)
	}
	metricsSrv := &http.Server{Handler: metricsHandler(coord)}
	go metricsSrv.Serve(mln)
	defer metricsSrv.Close()

	// A live application: an adaptive pool driven by the daemon over the
	// socket, exactly as a real client would run.
	client, err := coordinator.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	p := pool.New(pool.Config{Name: "e2e", Workers: 3})
	stop, err := client.Drive("e2e", p.Workers(), p, 10*time.Millisecond)
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

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", mln.Addr()))
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
	stop()
	resp2, err := http.Get(fmt.Sprintf("http://%s/metrics", mln.Addr()))
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
