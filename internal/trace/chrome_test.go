package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

// recordContended records a tiny fully-deterministic contended run: two
// CPUs, one lock, the waiter spinning on a running holder.
func recordContended(t *testing.T) []byte {
	t.Helper()
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 2})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{
		Quantum: 100 * sim.Millisecond, QuantumJitter: -1,
	})
	var buf bytes.Buffer
	rec := NewRecorder(k, &buf, Meta{Seed: 1})
	l := kernel.NewSpinLock("l")
	k.Spawn("holder", 1, 0, func(env *kernel.Env) {
		env.Acquire(l)
		env.Compute(30 * sim.Millisecond)
		env.Release(l)
	})
	k.Spawn("waiter", 2, 0, func(env *kernel.Env) {
		env.Compute(sim.Millisecond)
		env.Acquire(l)
		env.Compute(5 * sim.Millisecond)
		env.Release(l)
	})
	eng.RunUntilIdle()
	k.Finalize()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	return buf.Bytes()
}

// TestChromeExportGolden pins the exported timeline for the contended
// micro-run byte-for-byte.
func TestChromeExportGolden(t *testing.T) {
	var out bytes.Buffer
	if err := WriteChrome(bytes.NewReader(recordContended(t)), &out); err != nil {
		t.Fatal(err)
	}
	checkChromeGolden(t, "chrome_small.golden", out.Bytes())
}

// checkChromeGolden compares a Chrome export with testdata/name. Both
// exports' goldens regenerate with one variable:
//
//	UPDATE_CHROME_GOLDEN=1 go test ./internal/trace -run 'ExportGolden'
func checkChromeGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_CHROME_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("chrome export drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, golden)
	}
}

func TestChromeExportDeterministic(t *testing.T) {
	trace := recordContended(t)
	var a, b bytes.Buffer
	if err := WriteChrome(bytes.NewReader(trace), &a); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(bytes.NewReader(trace), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("exporting the same trace twice produced different JSON")
	}
}

func TestChromeRequiresHeader(t *testing.T) {
	in := `{"t":0,"kind":"spawn","pid":1,"app":1,"name":"p"}` + "\n"
	var out bytes.Buffer
	if err := WriteChrome(strings.NewReader(in), &out); err == nil {
		t.Error("headerless trace accepted")
	}
}

// TestChromeExportSchema validates the full Figure 4-style export (with
// control, so suspensions and target decisions appear) with CheckChrome,
// the rule set procctl-trace check applies to either export.
func TestChromeExportSchema(t *testing.T) {
	_, _, trace := runMix(t, 1, true)
	var out bytes.Buffer
	if err := WriteChrome(bytes.NewReader(trace), &out); err != nil {
		t.Fatal(err)
	}
	ck, err := CheckChrome(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("check rejected the sim export: %v", err)
	}
	if ck.Processes != 1 || ck.Flows == 0 || ck.CrossProcess != 0 {
		t.Errorf("check %+v, want one process and lock flows inside it", ck)
	}
	for _, ph := range []string{"X", "i", "M"} {
		if !bytes.Contains(out.Bytes(), []byte(`"ph":"`+ph+`"`)) {
			t.Errorf("no %q events in the controlled-mix export", ph)
		}
	}
	// 16 CPU tracks + the process name.
	if n := bytes.Count(out.Bytes(), []byte(`"ph":"M"`)); n != 17 {
		t.Errorf("metadata events = %d, want 17", n)
	}
}
