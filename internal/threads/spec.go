package threads

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"procctl/internal/sim"
)

// Spec is the JSON interchange form of a Workload, so custom task DAGs
// can be run through the simulator without writing Go:
//
//	{
//	  "name": "mine",
//	  "tasks": [
//	    {"name": "load",  "work_us": 5000},
//	    {"name": "grind", "work_us": 20000, "deps": [0],
//	     "lock": 0, "lock_work_us": 200}
//	  ]
//	}
//
// Dependencies are task indices (earlier in the array). Locks are
// numbered application locks; omit for none.
type Spec struct {
	Name  string     `json:"name"`
	Tasks []TaskSpec `json:"tasks"`
}

// TaskSpec is one task in a Spec.
type TaskSpec struct {
	Name       string `json:"name,omitempty"`
	WorkUS     int64  `json:"work_us"`
	Deps       []int  `json:"deps,omitempty"`
	Lock       *int   `json:"lock,omitempty"`
	LockWorkUS int64  `json:"lock_work_us,omitempty"`
}

// ParseSpec reads a JSON workload spec and builds the workload,
// validating the DAG.
func ParseSpec(r io.Reader) (*Workload, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("threads: parse spec: %w", err)
	}
	return spec.Build()
}

// Build materializes the spec into a Workload.
func (s *Spec) Build() (*Workload, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("threads: spec needs a name")
	}
	w := NewWorkload(s.Name)
	for i, t := range s.Tasks {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("task%d", i)
		}
		if t.WorkUS < 0 || t.LockWorkUS < 0 {
			return nil, fmt.Errorf("threads: task %d: negative work", i)
		}
		lock := NoLock
		var lockWork sim.Duration
		if t.Lock != nil {
			if *t.Lock < 0 || *t.Lock >= math.MaxInt32 {
				return nil, fmt.Errorf("threads: task %d: lock id %d out of range", i, *t.Lock)
			}
			lock = LockID(*t.Lock)
			lockWork = sim.Duration(t.LockWorkUS)
			if lockWork > sim.Duration(t.WorkUS) {
				return nil, fmt.Errorf("threads: task %d: lock_work_us exceeds work_us", i)
			}
		} else if t.LockWorkUS != 0 {
			return nil, fmt.Errorf("threads: task %d: lock_work_us without lock", i)
		}
		w.AddLocked(name, sim.Duration(t.WorkUS), lock, lockWork)
		for _, d := range t.Deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("threads: task %d: dependency %d must reference an earlier task", i, d)
			}
			w.Dep(TaskID(d), TaskID(i))
		}
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// WriteSpec serializes the workload as an indented JSON spec —
// round-trips with ParseSpec, and exports the built-in generators as
// starting points.
func (w *Workload) WriteSpec(out io.Writer) error {
	spec := Spec{Name: w.Name}
	// Reconstruct dependency lists (succs store the forward edges).
	deps := make([][]int, len(w.tasks))
	for i := range w.tasks {
		w.eachSucc(TaskID(i), func(s TaskID) {
			deps[s] = append(deps[s], i)
		})
	}
	for i := range w.tasks {
		t := &w.tasks[i]
		ts := TaskSpec{Name: w.TaskName(TaskID(i)), WorkUS: int64(t.Work), Deps: deps[i]}
		if t.Lock != NoLock {
			lock := int(t.Lock)
			ts.Lock = &lock
			ts.LockWorkUS = int64(t.LockWork)
		}
		spec.Tasks = append(spec.Tasks, ts)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&spec); err != nil {
		return fmt.Errorf("threads: write spec: %w", err)
	}
	return nil
}
