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
	k.Spawn("a", 1, 0, func(env *kernel.Env) {
		env.Compute(50 * sim.Millisecond)
		env.Sleep(q)
		env.Compute(10 * sim.Millisecond)
	})
	k.Spawn("b", 1, 0, func(env *kernel.Env) {
		env.Compute(80 * sim.Millisecond)
		env.Wake(q, 1)
		env.Compute(10 * sim.Millisecond)
	})
	k.Spawn("bg", kernel.AppNone, 0, func(env *kernel.Env) {
		env.Compute(30 * sim.Millisecond)
	})
	eng.RunUntilIdle()
	k.Shutdown()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, rec
}

func TestRecorderAndSummary(t *testing.T) {
	buf, rec := recordSmallRun(t)
	if rec.Events() < 10 {
		t.Fatalf("only %d events recorded", rec.Events())
	}
	sum, err := ReadSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != rec.Events() {
		t.Errorf("summary read %d events, recorder wrote %d", sum.Events, rec.Events())
	}
	if len(sum.Apps) != 2 {
		t.Fatalf("apps = %d, want 2 (app 1 + system)", len(sum.Apps))
	}
	app1 := sum.Apps[1] // sorted: AppNone first
	if app1.App != 1 || app1.Procs != 2 {
		t.Fatalf("app1 summary %+v", app1)
	}
	// a computes 60ms, b computes 90ms: total running 150ms exactly.
	if app1.Running != 150*sim.Millisecond {
		t.Errorf("running %v, want 150ms", app1.Running)
	}
	// a sleeps from when its 50 ms of compute finishes until b's wake;
	// with the background process competing, that's a few tens of ms.
	if app1.Blocked < 10*sim.Millisecond || app1.Blocked > 80*sim.Millisecond {
		t.Errorf("blocked %v, want tens of ms", app1.Blocked)
	}
	sys := sum.Apps[0]
	if sys.App != kernel.AppNone || sys.Running != 30*sim.Millisecond {
		t.Errorf("system summary %+v", sys)
	}
	out := sum.Render()
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
	sum, err := ReadSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h := sum.Header
	if h == nil {
		t.Fatal("summary did not surface the header")
	}
	if h.Version != FormatVersion || h.Seed != 1 || h.CPUs != 2 || h.Policy != "timeshare" || h.Control {
		t.Errorf("header %+v", h)
	}
	if got := sum.Render(); !strings.Contains(got, "seed 1") || !strings.Contains(got, "control off") {
		t.Errorf("render missing header provenance:\n%s", got)
	}
}

func TestSummaryRejectsVersionMismatch(t *testing.T) {
	in := `{"kind":"header","version":99,"seed":1,"policy":"timeshare","cpus":2,"control":false}` + "\n"
	if _, err := ReadSummary(strings.NewReader(in)); err == nil {
		t.Error("future format version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("unhelpful version error: %v", err)
	}
	// A header anywhere but line 1 is a corrupt or concatenated trace.
	in = testHeader + `{"t":1,"kind":"spawn","pid":1,"app":1,"name":"p"}` + "\n" +
		`{"kind":"header","version":2}` + "\n"
	if _, err := ReadSummary(strings.NewReader(in)); err == nil {
		t.Error("mid-stream header accepted")
	} else if !strings.Contains(err.Error(), "header on line 3") {
		t.Errorf("unhelpful mid-stream header error: %v", err)
	}
}

// testHeader is the first line of a hand-written trace.
const testHeader = `{"kind":"header","version":2,"seed":1,"policy":"timeshare","cpus":2,"control":false}` + "\n"

func TestSummaryRejectsGarbage(t *testing.T) {
	if _, err := ReadSummary(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSummary(strings.NewReader(testHeader + `{"t":1,"kind":"martian","pid":1}` + "\n")); err == nil {
		t.Error("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "martian") {
		t.Errorf("unhelpful unknown-kind error: %v", err)
	}
}

// A trace is at least its header: an empty file and a headerless (v1)
// trace are refused, a header alone summarizes to nothing.
func TestSummaryEmptyTrace(t *testing.T) {
	for _, in := range []string{"", `{"t":0,"kind":"spawn","pid":1,"app":1,"name":"p"}` + "\n"} {
		if _, err := ReadSummary(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "header") {
			t.Errorf("ReadSummary(%q): %v, want an error naming the missing header", in, err)
		}
	}
	sum, err := ReadSummary(strings.NewReader(testHeader))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 0 || len(sum.Apps) != 0 || sum.Header == nil {
		t.Errorf("header-only trace summary %+v", sum)
	}
}

func TestSummaryMidRunTrace(t *testing.T) {
	// A state event for a PID with no spawn (trace started mid-run)
	// must not crash or corrupt accounting.
	in := testHeader + `{"t":1000,"kind":"state","pid":7,"app":2,"from":"runnable","to":"running","cpu":0}
{"t":2000,"kind":"state","pid":7,"app":2,"from":"running","to":"runnable"}
`
	sum, err := ReadSummary(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var app2 *AppSummary
	for i := range sum.Apps {
		if sum.Apps[i].App == 2 {
			app2 = &sum.Apps[i]
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
	k.Spawn("p", 1, 0, func(env *kernel.Env) { env.Compute(sim.Millisecond) })
	eng.RunUntilIdle()
	k.Shutdown()
	if spawns != 1 || states == 0 || exits != 1 {
		t.Errorf("chained hooks not called: %d/%d/%d", spawns, states, exits)
	}
}
