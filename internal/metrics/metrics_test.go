package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}

	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}

	h := r.Histogram("h_micros", "a histogram", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1026 {
		t.Errorf("histogram count/sum = %d/%d, want 4/1026", h.Count(), h.Sum())
	}
	m := r.Snapshot(0).Get("h_micros")
	// Cumulative: le=10 → 2 (5, 10), le=100 → 3 (+11), +Inf → 4.
	want := []int64{2, 3, 4}
	for i, w := range want {
		if m.Buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, m.Buckets[i], w)
		}
	}
}

func TestRegistrationIdempotentAndChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "ignored")
	a.Inc()
	if b.Value() != 1 {
		t.Error("re-registration did not return the same series")
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("kind mismatch", func() { r.Gauge("x_total", "") })
	mustPanic("family kind mismatch", func() {
		r.Counter(Name("y", "a", "1"), "")
		r.Gauge(Name("y", "a", "2"), "")
	})
	mustPanic("negative counter add", func() { a.Add(-1) })
	mustPanic("bad name", func() { r.Counter("has space", "") })
	mustPanic("unsorted bounds", func() { r.Histogram("hh", "", []int64{5, 5}) })
}

func TestName(t *testing.T) {
	if got := Name("base"); got != "base" {
		t.Errorf("Name() = %q", got)
	}
	want := `b{cpu="3",app="fft"}`
	if got := Name("b", "cpu", "3", "app", "fft"); got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	// Label values are quoted the way %q quotes them.
	for _, v := range []string{"", `q"b\s`, "a b\n", "é\u2028\x00\xff"} {
		if got, want := Name("b", "app", v), fmt.Sprintf("b{app=%q}", v); got != want {
			t.Errorf("Name() = %s, want %s", got, want)
		}
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insert in non-sorted order, including interleaving label
		// blocks with longer plain names.
		r.Counter(Name("cpu_busy", "cpu", "1"), "").Add(10)
		r.Gauge("cpu_busy_frac", "").Set(3)
		r.Counter(Name("cpu_busy", "cpu", "0"), "").Add(20)
		r.Histogram("wait_micros", "", nil).Observe(42)
		return r
	}
	s := build().Snapshot(7)
	var names []string
	for _, m := range s.Metrics {
		names = append(names, m.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("snapshot not sorted: %q >= %q", names[i-1], names[i])
		}
	}

	render := func(r *Registry) (string, string, string) {
		snap := r.Snapshot(7)
		var tb, pb bytes.Buffer
		if err := snap.WriteText(&tb); err != nil {
			t.Fatal(err)
		}
		if err := snap.WritePrometheus(&pb); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return tb.String(), pb.String(), string(js)
	}
	t1, p1, j1 := render(build())
	t2, p2, j2 := render(build())
	if t1 != t2 || p1 != p2 || j1 != j2 {
		t.Error("identical registries rendered differently")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("rpc_total", "op", "poll"), "RPCs served").Add(3)
	r.Counter(Name("rpc_total", "op", "status"), "RPCs served").Add(1)
	r.Gauge("members", "registered members").Set(2)
	r.Histogram(Name("lat_micros", "op", "poll"), "latency", []int64{10, 100}).Observe(50)

	var b bytes.Buffer
	if err := r.Snapshot(1).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rpc_total counter\n",
		"# HELP rpc_total RPCs served\n",
		`rpc_total{op="poll"} 3` + "\n",
		`rpc_total{op="status"} 1` + "\n",
		"# TYPE members gauge\n",
		"# TYPE lat_micros histogram\n",
		`lat_micros_bucket{op="poll",le="10"} 0` + "\n",
		`lat_micros_bucket{op="poll",le="100"} 1` + "\n",
		`lat_micros_bucket{op="poll",le="+Inf"} 1` + "\n",
		`lat_micros_sum{op="poll"} 50` + "\n",
		`lat_micros_count{op="poll"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Exactly one TYPE line per family even with several series.
	if n := strings.Count(out, "# TYPE rpc_total "); n != 1 {
		t.Errorf("rpc_total has %d TYPE lines, want 1", n)
	}
}

func TestValueAndRemove(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Add(9)
	if v, ok := r.Value("c"); !ok || v != 9 {
		t.Errorf("Value(c) = %d, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value(missing) reported ok")
	}
	r.Histogram("h", "", nil)
	if _, ok := r.Value("h"); ok {
		t.Error("Value on histogram reported ok")
	}
	r.Remove("c")
	if _, ok := r.Value("c"); ok {
		t.Error("Value after Remove reported ok")
	}
	if r.Snapshot(0).Get("c") != nil {
		t.Error("removed series still in snapshot")
	}
}

func TestOnCollect(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	depth := 0
	r.OnCollect(func() { g.Set(int64(depth)) })
	depth = 5
	if got := r.Snapshot(0).Get("depth").Value; got != 5 {
		t.Errorf("collected gauge = %d, want 5", got)
	}
	depth = 2
	if got := r.Snapshot(1).Get("depth").Value; got != 2 {
		t.Errorf("collected gauge = %d, want 2", got)
	}
}
