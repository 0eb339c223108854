package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"procctl/internal/runtime/coordinator"
)

// TestIntrospectionEndpoints checks the -metrics HTTP surface beyond
// /metrics itself: the pprof index and a real profile, expvar, and the
// root index.
func TestIntrospectionEndpoints(t *testing.T) {
	log := startDaemon(t, "introspection HTTP listener up",
		"-listen", "unix:"+t.TempDir()+"/d.sock", "-metrics", "127.0.0.1:0")
	base := strings.TrimSuffix(log.Metrics, "/metrics")

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d, body %.80q", code, body)
	}
	if code, body := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.Contains(body, "goroutine profile") {
		t.Errorf("goroutine profile: status %d, body %.80q", code, body)
	}
	code, body := get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("expvar: status %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("expvar body is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("expvar missing memstats")
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/debug/pprof/") {
		t.Errorf("index: status %d, body %q", code, body)
	}
	if code, _ := get("/nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", code)
	}
}

// TestNewLogger covers level parsing and both handler formats.
func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	logger, err := newLogger(&buf, "warn", false)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hidden")
	logger.Warn("shown")
	if out := buf.String(); strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Errorf("warn-level text log = %q", out)
	}

	buf.Reset()
	logger, err = newLogger(&buf, "debug", false)
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("verbose")
	if !strings.Contains(buf.String(), "verbose") {
		t.Errorf("debug-level text log = %q", buf.String())
	}

	buf.Reset()
	logger, err = newLogger(&buf, "info", true)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("structured", "k", 7)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("JSON handler emitted non-JSON %q: %v", buf.String(), err)
	}
	if line["msg"] != "structured" || line["k"] != float64(7) {
		t.Errorf("JSON log line = %v", line)
	}

	if _, err := newLogger(&buf, "loud", false); err == nil {
		t.Error("bad level accepted")
	}
}

// TestDumpFlight drives the SIGUSR1 dump path directly and checks the
// recorder's events come out as structured log lines.
func TestDumpFlight(t *testing.T) {
	coord := coordinator.New(4)
	c := make(chan int, 1)
	coord.RegisterWeighted(chanMember{name: "dumpme", workers: 2, c: c}, 1)
	var buf bytes.Buffer
	logger, err := newLogger(&buf, "info", true)
	if err != nil {
		t.Fatal(err)
	}
	dumpFlight(logger, coord)
	out := buf.String()
	if !strings.Contains(out, `"kind":"register"`) || !strings.Contains(out, `"app":"dumpme"`) {
		t.Errorf("flight dump missing the registration: %q", out)
	}
	// The registration's rebalance is epoch 1; its events carry it.
	if !strings.Contains(out, `"kind":"rebalance"`) || !strings.Contains(out, `"epoch":1`) {
		t.Errorf("flight dump missing the rebalance epoch: %q", out)
	}
	if !strings.Contains(out, "flight recorder dump") {
		t.Errorf("flight dump missing its header line: %q", out)
	}
}

// chanMember is a Member whose targets land on a channel.
type chanMember struct {
	name    string
	workers int
	c       chan int
}

func (m chanMember) Name() string { return m.name }
func (m chanMember) Workers() int { return m.workers }
func (m chanMember) SetTarget(n int) {
	select {
	case m.c <- n:
	default:
	}
}
