package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The suite runs the built binary: main exits through os.Exit on flag
// and usage errors, so exit codes and stderr can only be observed from
// outside the process.

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "procctl-trace-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "procctl-trace")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building procctl-trace: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// recordTrace runs the record subcommand and returns its stdout (the trace).
func recordTrace(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(binPath, append([]string{"record"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("record %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// pipe feeds input to a subcommand and returns its stdout.
func pipe(t *testing.T, input []byte, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	cmd.Stdin = bytes.NewReader(input)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.String())
	}
	return out
}

// checkGolden compares got against testdata/<name>, regenerating the
// file first when UPDATE_TRACE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_TRACE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("output drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, golden)
	}
}

func TestRecordSummaryGolden(t *testing.T) {
	trace := recordTrace(t, "-seed", "1", "-seconds", "2", "-control")
	checkGolden(t, "summary_seed1.golden", pipe(t, trace, "summary"))
}

func TestAnalyzeGolden(t *testing.T) {
	trace := recordTrace(t, "-seed", "1", "-seconds", "2", "-control")
	checkGolden(t, "analyze_seed1_ctl.golden", pipe(t, trace, "analyze"))
}

func TestAnalyzeControlComparison(t *testing.T) {
	// The paper's headline, at the CLI level: without process control
	// the same mix wastes strictly more time spinning on preempted lock
	// holders. (The exact decomposition is asserted in internal/trace;
	// here we check the rendered report keeps telling the story.)
	without := pipe(t, recordTrace(t, "-seed", "1", "-seconds", "2"), "analyze")
	with := pipe(t, recordTrace(t, "-seed", "1", "-seconds", "2", "-control"), "analyze")
	if !strings.Contains(string(without), "control off") || !strings.Contains(string(with), "control on") {
		t.Errorf("analyze reports missing control provenance:\n%s\n%s", without, with)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	a := pipe(t, recordTrace(t, "-seed", "7", "-seconds", "1"), "analyze")
	b := pipe(t, recordTrace(t, "-seed", "7", "-seconds", "1"), "analyze")
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed analyze runs differ:\n%s\n%s", a, b)
	}
}

func TestExportChrome(t *testing.T) {
	trace := recordTrace(t, "-seed", "1", "-seconds", "1", "-control")
	path := filepath.Join(t.TempDir(), "out.json")
	cmd := exec.Command(binPath, "export", "-format", "chrome", "-out", path)
	cmd.Stdin = bytes.NewReader(trace)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("export: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("export produced no trace events")
	}
}

func TestRecordDeterministicPerSeed(t *testing.T) {
	a := recordTrace(t, "-seed", "7", "-seconds", "1")
	b := recordTrace(t, "-seed", "7", "-seconds", "1")
	if !bytes.Equal(a, b) {
		t.Error("same-seed record runs produced different traces")
	}
	c := recordTrace(t, "-seed", "8", "-seconds", "1")
	if bytes.Equal(a, c) {
		t.Error("different seeds produced byte-identical traces")
	}
}

func TestSummaryReadsFileFlag(t *testing.T) {
	trace := recordTrace(t, "-seed", "1", "-seconds", "1")
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(binPath, "summary", "-in", path).Output()
	if err != nil {
		t.Fatalf("summary -in: %v", err)
	}
	if !strings.Contains(string(out), "Trace summary:") {
		t.Errorf("summary -in output missing header:\n%s", out)
	}
}

// run executes the binary expecting failure; it returns the exit code
// and stderr.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("%v unexpectedly succeeded", args)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%v: %v", args, err)
	}
	return ee.ExitCode(), stderr.String()
}

func TestUsageErrorsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"no subcommand", nil, 2, "usage:"},
		{"unknown subcommand", []string{"replay"}, 2, "usage:"},
		{"unknown record flag", []string{"record", "-nope"}, 2, "flag provided but not defined"},
		{"unknown summary flag", []string{"summary", "-nope"}, 2, "flag provided but not defined"},
		{"unknown analyze flag", []string{"analyze", "-nope"}, 2, "flag provided but not defined"},
		{"unknown policy", []string{"record", "-policy", "psychic"}, 1, "unknown policy"},
		{"missing input file", []string{"summary", "-in", "/no/such/trace.jsonl"}, 1, "no such file"},
		{"missing analyze input", []string{"analyze", "-in", "/no/such/trace.jsonl"}, 1, "no such file"},
		{"unknown export format", []string{"export", "-format", "svg"}, 1, "unknown export format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := run(t, tc.args...)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q missing %q", stderr, tc.want)
			}
		})
	}
}

// TestAnalyzeRejectsLegacyTrace: a headerless v1 trace carries too
// little to analyze and no build has written one since format version 2,
// so every subcommand that reads a trace fails loudly on it instead of
// mis-aggregating — summary included.
func TestAnalyzeRejectsLegacyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.jsonl")
	v1 := `{"t":0,"kind":"spawn","pid":1,"app":1,"name":"p"}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"analyze", "export", "summary"} {
		code, stderr := run(t, sub, "-in", path)
		if code != 1 || !strings.Contains(stderr, "header") {
			t.Errorf("%s on v1 trace: exit %d, stderr %q", sub, code, stderr)
		}
	}
}
