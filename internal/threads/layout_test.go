package threads

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
)

// The task array is a figure's biggest allocation and the worker's hot
// data: a Task stays within 40 bytes and free of pointers (so the array
// is allocated noscan), and a span within 16.
func TestTaskIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Task{}); size > 40 {
		t.Errorf("Task is %d bytes, want at most 40", size)
	}
	if size := unsafe.Sizeof(succSpan{}); size > 16 {
		t.Errorf("succSpan is %d bytes, want at most 16", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: it holds a pointer", path, typ.Kind())
		}
	}
	walk("Task", reflect.TypeOf(Task{}))
	walk("succSpan", reflect.TypeOf(succSpan{}))
}

// Tasks and spans are indexed in 32 bits. A count past math.MaxInt32 is
// refused with an error from Validate — the offending call and every
// later one adds nothing — instead of wrapping an index.
func TestWorkloadRefusesCountsPast32Bits(t *testing.T) {
	w := NewWorkload("huge")
	a, b := w.Add("a", 1), w.Add("b", 1)
	w.Dep(a, b)
	if !w.building(math.MaxInt32-2, 0) || !w.building(0, math.MaxInt32-1) {
		t.Fatal("a count of exactly math.MaxInt32 was refused")
	}
	if w.overflow != nil {
		t.Fatal(w.overflow)
	}
	w.Grow(math.MaxInt32 - 1) // one task too many: refused before it allocates 80 GB
	if w.overflow == nil {
		t.Fatal("Grow past math.MaxInt32 tasks was accepted")
	}
	// From here on the builder is inert, whatever it is handed.
	if id := w.Add("c", 1); id != -1 {
		t.Errorf("Add after the overflow returned task %d, want -1", id)
	}
	w.Dep(a, -1)
	w.Barrier([]TaskID{a, -1}, []TaskID{b, -1})
	w.Grow(10)
	if w.Len() != 2 || len(w.spans) != 1 || len(w.names) != 2 || len(w.groups) != 0 {
		t.Errorf("after the overflow: %d tasks, %d names, %d spans, %d groups; want 2, 2, 1, 0",
			w.Len(), len(w.names), len(w.spans), len(w.groups))
	}
	err := w.Validate()
	if err == nil || !strings.Contains(err.Error(), "more than 2147483647 tasks") {
		t.Errorf("Validate = %v, want the overflow", err)
	}
	if err2 := w.Validate(); err2 != err {
		t.Errorf("second Validate = %v, want the same verdict", err2)
	}

	spans := NewWorkload("spans")
	a, b = spans.Add("a", 1), spans.Add("b", 1)
	spans.Dep(a, b)
	if !spans.building(0, math.MaxInt32-1) || spans.building(0, math.MaxInt32) || spans.Validate() == nil {
		t.Error("math.MaxInt32 spans were refused, or one more accepted")
	}
}

// A launch's own arrays follow the workload: 32-bit counters, and a ready
// queue allocated once, at the number of tasks ready from the start —
// all of them for a DAG without edges, one stage for a staged one — that
// the run then never has to grow.
func TestLaunchSizesItsStateToTheWorkload(t *testing.T) {
	flat := NewWorkload("flat")
	for i := 0; i < 1000; i++ {
		flat.Add("t", sim.Millisecond)
	}
	staged := NewWorkload("staged")
	var prev []TaskID
	for s := 0; s < 5; s++ {
		cur := make([]TaskID, 48)
		for i := range cur {
			cur[i] = staged.Add("t", sim.Millisecond)
		}
		staged.Barrier(prev, cur)
		prev = cur
	}
	for _, c := range []struct {
		wl    *Workload
		ready int
	}{{flat, 1000}, {staged, 48}} {
		k := kernel.New(sim.NewEngine(1), machine.New(machine.Config{NumCPU: 4}), kernel.NewTimeshare(), kernel.Config{})
		a := Launch(k, 1, c.wl, Config{Procs: 4})
		if len(a.ready) != c.ready || cap(a.ready) != c.ready {
			t.Errorf("%s: ready queue of %d in an array of %d at launch, want %d in %d", c.wl.Name, len(a.ready), cap(a.ready), c.ready, c.ready)
		}
		if reflect.TypeOf(a.depsLeft).Elem().Size() != 4 || reflect.TypeOf(a.groupsLeft).Elem().Size() != 4 {
			t.Errorf("%s: dependency counters are not 32-bit", c.wl.Name)
		}
		for !a.Done() && k.Engine().Now() < sim.Time(60*sim.Second) {
			k.Engine().Run(k.Engine().Now().Add(sim.Second))
		}
		k.Shutdown()
		if !a.Done() || cap(a.ready) != c.ready {
			t.Errorf("%s: done %v with the ready array at %d slots, want it finished in the %d it started with", c.wl.Name, a.Done(), cap(a.ready), c.ready)
		}
	}
}
