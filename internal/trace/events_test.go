package trace

import (
	"bytes"
	"strings"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

func recordSmallRun(t *testing.T) (*bytes.Buffer, *Recorder) {
	t.Helper()
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 2})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{
		Quantum: 20 * sim.Millisecond, QuantumJitter: -1,
	})
	var buf bytes.Buffer
	rec := NewRecorder(k, &buf, Meta{Seed: 1})
	q := kernel.NewWaitQueue("q")
	k.SpawnResumable("a", 1, 0, kernel.Script(
		kernel.Compute(50*sim.Millisecond),
		kernel.Sleep(q),
		kernel.Compute(10*sim.Millisecond),
	))
	k.SpawnResumable("b", 1, 0, kernel.Script(
		kernel.Compute(80*sim.Millisecond),
		func(env *kernel.Env) { env.Wake(q, 1) },
		kernel.Compute(10*sim.Millisecond),
	))
	k.SpawnResumable("bg", kernel.AppNone, 0, kernel.Script(kernel.Compute(30*sim.Millisecond)))
	eng.RunUntilIdle()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, rec
}

// TestRecorderAndSummary: the residency ReadAttribution folds from a
// recorded run is the run's.
func TestRecorderAndSummary(t *testing.T) {
	buf, rec := recordSmallRun(t)
	if rec.Events() < 10 {
		t.Fatalf("only %d events recorded", rec.Events())
	}
	att, err := ReadAttribution(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if att.Events != rec.Events() {
		t.Errorf("attribution read %d events, recorder wrote %d", att.Events, rec.Events())
	}
	if len(att.Apps) != 2 {
		t.Fatalf("apps = %d, want 2 (app 1 + system)", len(att.Apps))
	}
	app1 := att.Apps[1] // sorted: AppNone first
	if app1.App != 1 || app1.Procs != 2 {
		t.Fatalf("app1 attribution %+v", app1)
	}
	// a computes 60ms, b computes 90ms: total running 150ms exactly.
	if app1.Running != 150*sim.Millisecond {
		t.Errorf("running %v, want 150ms", app1.Running)
	}
	// a sleeps from when its 50 ms of compute finishes until b's wake;
	// with the background process competing, that's a few tens of ms.
	if app1.OtherBlocked < 10*sim.Millisecond || app1.OtherBlocked > 80*sim.Millisecond {
		t.Errorf("blocked %v, want tens of ms", app1.OtherBlocked)
	}
	sys := att.Apps[0]
	if sys.App != kernel.AppNone || sys.Running != 30*sim.Millisecond {
		t.Errorf("system attribution %+v", sys)
	}
	out := att.Render()
	if !strings.Contains(out, "system") || !strings.Contains(out, "app 1") {
		t.Errorf("render missing rows:\n%s", out)
	}
}

func TestRecorderWritesValidHeader(t *testing.T) {
	buf, _ := recordSmallRun(t)
	first := buf.Bytes()[:bytes.IndexByte(buf.Bytes(), '\n')]
	if !bytes.Contains(first, []byte(`"kind":"header"`)) {
		t.Fatalf("first line is not a header: %s", first)
	}
	att, err := ReadAttribution(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h := att.Header
	if h == nil {
		t.Fatal("attribution did not surface the header")
	}
	if h.Version != FormatVersion || h.Seed != 1 || h.CPUs != 2 || h.Policy != "timeshare" || h.Control {
		t.Errorf("header %+v", h)
	}
	if got := att.Render(); !strings.Contains(got, "seed 1") || !strings.Contains(got, "control off") {
		t.Errorf("render missing header provenance:\n%s", got)
	}
}

// The reader tests below hold readTrace, under every view of a trace,
// through ReadAttribution.

func TestSummaryRejectsVersionMismatch(t *testing.T) {
	in := `{"kind":"header","version":99,"seed":1,"policy":"timeshare","cpus":2,"control":false}` + "\n"
	if _, err := ReadAttribution(strings.NewReader(in)); err == nil {
		t.Error("future format version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("unhelpful version error: %v", err)
	}
	// A header anywhere but line 1 is a corrupt or concatenated trace.
	in = testHeader + `{"t":1,"kind":"spawn","pid":1,"app":1,"name":"p"}` + "\n" +
		`{"kind":"header","version":2}` + "\n"
	if _, err := ReadAttribution(strings.NewReader(in)); err == nil {
		t.Error("mid-stream header accepted")
	} else if !strings.Contains(err.Error(), "header on line 3") {
		t.Errorf("unhelpful mid-stream header error: %v", err)
	}
}

// testHeader is the first line of a hand-written trace.
const testHeader = `{"kind":"header","version":2,"seed":1,"policy":"timeshare","cpus":2,"control":false}` + "\n"

func TestSummaryRejectsGarbage(t *testing.T) {
	if _, err := ReadAttribution(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadAttribution(strings.NewReader(testHeader + `{"t":1,"kind":"martian","pid":1}` + "\n")); err == nil {
		t.Error("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "martian") {
		t.Errorf("unhelpful unknown-kind error: %v", err)
	}
}

// A trace is at least its header: an empty file and a headerless (v1)
// trace are refused, a header alone attributes nothing.
func TestSummaryEmptyTrace(t *testing.T) {
	for _, in := range []string{"", `{"t":0,"kind":"spawn","pid":1,"app":1,"name":"p"}` + "\n"} {
		if _, err := ReadAttribution(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "header") {
			t.Errorf("ReadAttribution(%q): %v, want an error naming the missing header", in, err)
		}
	}
	att, err := ReadAttribution(strings.NewReader(testHeader))
	if err != nil {
		t.Fatal(err)
	}
	if att.Events != 0 || len(att.Apps) != 0 || att.Header == nil {
		t.Errorf("header-only trace attribution %+v", att)
	}
}

func TestSummaryMidRunTrace(t *testing.T) {
	// A state event for a PID with no spawn (trace started mid-run)
	// must not crash or corrupt accounting.
	in := testHeader + `{"t":1000,"kind":"state","pid":7,"app":2,"from":"runnable","to":"running","cpu":0}
{"t":2000,"kind":"state","pid":7,"app":2,"from":"running","to":"runnable"}
`
	att, err := ReadAttribution(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var app2 *AppAttribution
	for i := range att.Apps {
		if att.Apps[i].App == 2 {
			app2 = &att.Apps[i]
		}
	}
	if app2 == nil {
		t.Fatal("app 2 missing")
	}
	if app2.Running != 1000 {
		t.Errorf("running %v, want 1ms", app2.Running)
	}
}

func TestRecorderChainsHooks(t *testing.T) {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 1})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{})
	spawns, states, exits := 0, 0, 0
	k.OnSpawn = func(*kernel.Process) { spawns++ }
	k.OnStateChange = func(*kernel.Process, kernel.ProcState, kernel.ProcState) { states++ }
	k.OnExit = func(*kernel.Process) { exits++ }
	var buf bytes.Buffer
	NewRecorder(k, &buf, Meta{})
	k.SpawnResumable("p", 1, 0, kernel.Script(kernel.Compute(sim.Millisecond)))
	eng.RunUntilIdle()
	if spawns != 1 || states == 0 || exits != 1 {
		t.Errorf("chained hooks not called: %d/%d/%d", spawns, states, exits)
	}
}
