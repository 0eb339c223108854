package threads

import (
	"bytes"
	"strings"
	"testing"

	"procctl/internal/sim"
)

const sampleSpec = `{
  "name": "pipeline",
  "tasks": [
    {"name": "load", "work_us": 5000},
    {"name": "grind", "work_us": 20000, "deps": [0], "lock": 0, "lock_work_us": 200},
    {"name": "store", "work_us": 1000, "deps": [1]}
  ]
}`

func TestParseSpec(t *testing.T) {
	w, err := ParseSpec(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "pipeline" || w.Len() != 3 {
		t.Fatalf("parsed %q with %d tasks", w.Name, w.Len())
	}
	if w.TotalWork() != 26*sim.Millisecond {
		t.Errorf("TotalWork = %v", w.TotalWork())
	}
	if w.NumLocks() != 1 {
		t.Errorf("NumLocks = %d", w.NumLocks())
	}
	grind := w.Task(1)
	if grind.Lock != 0 || grind.LockWork != 200*sim.Microsecond {
		t.Errorf("grind lock %d/%v", grind.Lock, grind.LockWork)
	}
	if w.CriticalPath() != 26*sim.Millisecond {
		t.Errorf("CriticalPath = %v (chain)", w.CriticalPath())
	}
}

// A spec's unnamed tasks are named task<id> at export, as Build used to
// name them when it stored a name per task.
func TestSpecNamesOnlyWhatItGives(t *testing.T) {
	w, err := ParseSpec(strings.NewReader(`{"name":"partly","tasks":[{"name":"load","work_us":1},{"work_us":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if w.TaskName(0) != "load" || w.TaskName(1) != "task1" {
		t.Errorf("tasks named %q and %q, want load and task1", w.TaskName(0), w.TaskName(1))
	}
	var buf bytes.Buffer
	if err := w.WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name": "task1"`) {
		t.Errorf("export does not name the unnamed task task1:\n%s", buf.String())
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{`,
		"unknown field": `{"name":"x","tasks":[{"work_us":1,"bogus":2}]}`,
		"no name":       `{"tasks":[{"work_us":1}]}`,
		"negative work": `{"name":"x","tasks":[{"work_us":-1}]}`,
		"forward dep":   `{"name":"x","tasks":[{"work_us":1,"deps":[1]},{"work_us":1}]}`,
		"self dep":      `{"name":"x","tasks":[{"work_us":1,"deps":[0]}]}`,
		"lockwork only": `{"name":"x","tasks":[{"work_us":1,"lock_work_us":5}]}`,
		"lockwork big":  `{"name":"x","tasks":[{"work_us":1,"lock":0,"lock_work_us":5}]}`,
		"negative lock": `{"name":"x","tasks":[{"work_us":1,"lock":-1}]}`,
		"lock past 32b": `{"name":"x","tasks":[{"work_us":1,"lock":4294967296}]}`,
		"empty":         `{"name":"x","tasks":[]}`,
	}
	for label, in := range cases {
		if _, err := ParseSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	w1, err := ParseSpec(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w1.WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := ParseSpec(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, buf.String())
	}
	if w2.Len() != w1.Len() || w2.TotalWork() != w1.TotalWork() || w2.NumLocks() != w1.NumLocks() {
		t.Error("round trip changed the workload")
	}
	if w2.CriticalPath() != w1.CriticalPath() {
		t.Error("round trip changed the DAG")
	}
}

func TestBuiltinGeneratorsExport(t *testing.T) {
	// Generated workloads round-trip through the spec format.
	gen := NewWorkload("gen")
	var layer []TaskID
	for i := 0; i < 4; i++ {
		layer = append(layer, gen.Add(sim.Millisecond))
	}
	sink := gen.AddLocked(2*sim.Millisecond, 1, sim.Millisecond/2)
	gen.Barrier(layer, []TaskID{sink})

	var buf bytes.Buffer
	if err := gen.WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := ParseSpec(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if w2.Task(4).ndeps != 4 {
		t.Errorf("sink deps = %d, want 4", w2.Task(4).ndeps)
	}
	if w2.NumLocks() != 2 {
		t.Errorf("NumLocks = %d, want 2 (lock ids preserved)", w2.NumLocks())
	}
}
