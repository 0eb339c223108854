package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"procctl/internal/sim"
)

func TestLogBucketsShape(t *testing.T) {
	b := LogBuckets(1, 1000, 3)
	if b[0] != 1 {
		t.Errorf("first bound = %d, want lo", b[0])
	}
	if last := b[len(b)-1]; last < 1000 {
		t.Errorf("last bound = %d, does not cover hi", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %d <= %d", i, b[i], b[i-1])
		}
	}
	// Once past the integer-forced low range, consecutive ratios must
	// hover around 10^(1/3) ≈ 2.154.
	for i := 1; i < len(b); i++ {
		if b[i-1] < 10 {
			continue
		}
		ratio := float64(b[i]) / float64(b[i-1])
		if ratio < 1.8 || ratio > 2.6 {
			t.Errorf("ratio %d/%d = %.2f, want ≈2.15", b[i], b[i-1], ratio)
		}
	}
	// A registry must accept the layout as-is.
	NewRegistry().Histogram("log_micros", "", b)

	for _, bad := range [][3]int64{{0, 10, 3}, {5, 5, 3}, {1, 10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogBuckets(%v) did not panic", bad)
				}
			}()
			LogBuckets(bad[0], bad[1], int(bad[2]))
		}()
	}
}

func TestLatencyBucketsTakeBinarySearchPath(t *testing.T) {
	if len(LatencyBuckets) <= linearScanMax {
		t.Fatalf("LatencyBuckets has %d bounds; expected the binary-search Observe path (> %d)",
			len(LatencyBuckets), linearScanMax)
	}
	// Both Observe paths must agree on bucket placement: run the same
	// observations through a small (linear) and a large (binary) layout
	// sharing a bounds prefix, then check identical cumulative counts.
	r := NewRegistry()
	small := r.Histogram("small", "", []int64{10, 100, 1000})
	big := r.Histogram("big", "", LogBuckets(1, 1_000_000, 9))
	rng := sim.NewRNG(3)
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(2000)) // spans below, on, and above bounds
		small.Observe(v)
		big.Observe(v)
	}
	snap := r.Snapshot(0)
	for _, name := range []string{"small", "big"} {
		m := snap.Get(name)
		if m.Buckets[len(m.Buckets)-1] != 5000 {
			t.Errorf("%s: +Inf bucket = %d, want 5000", name, m.Buckets[len(m.Buckets)-1])
		}
		// Cross-check each bound against a direct count.
		for i, bound := range m.Bounds {
			want := int64(0)
			rng2 := sim.NewRNG(3)
			for j := 0; j < 5000; j++ {
				if int64(rng2.Intn(2000)) <= bound {
					want++
				}
			}
			if m.Buckets[i] != want {
				t.Errorf("%s: bucket le=%d holds %d, want %d", name, bound, m.Buckets[i], want)
			}
		}
	}
}

// latencyHistogram is a span histogram of the daemon's kind.
func latencyHistogram() *Histogram {
	return NewRegistry().Histogram(Name("bench_latency_micros", "stage", "total"),
		"benchmark histogram", LatencyBuckets)
}

// BenchmarkHistogramObserve is one observation on the binary-search path:
// the per-event cost of the daemon's span instrumentation.
func BenchmarkHistogramObserve(b *testing.B) {
	b.ReportAllocs()
	h := latencyHistogram()
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(rng.Intn(10_000_000)))
	}
}

func TestHistogramObserveAllocatesNothing(t *testing.T) {
	h := latencyHistogram()
	rng := sim.NewRNG(1)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(int64(rng.Intn(10_000_000))) }); n != 0 {
		t.Errorf("Observe on LatencyBuckets allocates %.0f times, want 0", n)
	}
}

// exactQuantile is the reference: the ceil-rank order statistic of the
// raw sample.
func exactQuantile(sorted []int64, perMille int64) int64 {
	n := int64(len(sorted))
	rank := (n*perMille + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileAccuracy bounds the estimator's relative error against
// the exact order statistic over seeded uniform, exponential, and
// bimodal samples. With 9 buckets per decade a bucket spans ~29%
// relative width; interpolation keeps the estimate inside the bucket,
// so the worst-case relative error is one bucket width. The test
// asserts 35% to leave room for the ceil-rank convention at bucket
// edges; typical error is far smaller.
func TestQuantileAccuracy(t *testing.T) {
	const n = 20000
	rng := sim.NewRNG(99)
	samples := map[string]func() int64{
		// Uniform over [1, 1e6).
		"uniform": func() int64 { return 1 + int64(rng.Intn(1_000_000-1)) },
		// Exponential with mean 50_000 µs via inverse transform.
		"exponential": func() int64 {
			u := rng.Float64()
			v := int64(-50_000 * math.Log(1-u))
			if v < 1 {
				v = 1
			}
			return v
		},
		// Bimodal: 90% fast mode around 100 µs, 10% slow around 1 s —
		// the distribution shape means hide and quantiles expose.
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 900_000 + int64(rng.Intn(200_000))
			}
			return 50 + int64(rng.Intn(100))
		},
	}
	// Iterate in fixed name order to keep the RNG stream stable.
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		draw := samples[name]
		r := NewRegistry()
		h := r.Histogram("lat_micros", "", LatencyBuckets)
		raw := make([]int64, n)
		for i := range raw {
			raw[i] = draw()
			h.Observe(raw[i])
		}
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		m := r.Snapshot(0).Get("lat_micros")
		for _, perMille := range []int64{500, 900, 990, 999} {
			got := m.Quantile(perMille)
			want := exactQuantile(raw, perMille)
			relErr := math.Abs(float64(got)-float64(want)) / float64(want)
			if relErr > 0.35 {
				t.Errorf("%s q%d: estimate %d vs exact %d (rel err %.1f%% > 35%%)",
					name, perMille, got, want, relErr*100)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []int64{10, 100})
	empty := r.Snapshot(0).Get("h")
	if got := empty.Quantile(500); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	var et, ep bytes.Buffer
	if err := r.Snapshot(0).WriteText(&et); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(0).WritePrometheus(&ep); err != nil {
		t.Fatal(err)
	}
	if out := et.String() + ep.String(); strings.Contains(out, "h_p") {
		t.Errorf("empty histogram rendered quantiles:\n%s", out)
	}

	h.Observe(7)
	one := r.Snapshot(0).Get("h")
	// A single observation: every quantile lands in the first bucket.
	for _, q := range []int64{0, 500, 999, 1000} {
		if got := one.Quantile(q); got < 1 || got > 10 {
			t.Errorf("single-sample q%d = %d, want within (0,10]", q, got)
		}
	}
	// Out-of-range per-mille values clamp instead of misbehaving.
	if one.Quantile(-5) != one.Quantile(0) || one.Quantile(2000) != one.Quantile(1000) {
		t.Error("per-mille clamping broken")
	}

	// Observations beyond the last bound clamp to it.
	h2 := r.Histogram("h2", "", []int64{10, 100})
	h2.Observe(5000)
	if got := r.Snapshot(0).Get("h2").Quantile(500); got != 100 {
		t.Errorf("overflow-bucket quantile = %d, want clamp to last bound 100", got)
	}

	// Counters and gauges report no quantiles.
	r.Counter("c", "").Inc()
	if got := r.Snapshot(0).Get("c").Quantile(500); got != 0 {
		t.Errorf("counter quantile = %d, want 0", got)
	}
}

// TestQuantileExportAllRenderings checks that one histogram's quantiles
// appear in every rendering: JSON points, text _pXX rows, and derived
// Prometheus gauge families with exactly one TYPE line each.
func TestQuantileExportAllRenderings(t *testing.T) {
	r := NewRegistry()
	for _, stage := range []string{"notify", "total"} {
		h := r.Histogram(Name("lat_micros", "stage", stage), "span latency", LatencyBuckets)
		for i := int64(1); i <= 100; i++ {
			h.Observe(i * 10)
		}
	}
	// An empty sibling series must not emit quantile samples.
	r.Histogram(Name("lat_micros", "stage", "idle"), "span latency", LatencyBuckets)
	snap := r.Snapshot(42)

	m := snap.Get(`lat_micros{stage="total"}`)
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(js), "quantiles") {
		t.Errorf("JSON stores quantiles beside the buckets they derive from:\n%s", js)
	}

	var tb bytes.Buffer
	if err := snap.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	rows := textRows(tb.String())
	for _, q := range wantQuantiles {
		name := "lat_micros_" + q.suffix + `{stage="total"}`
		v, ok := rows[name]
		if !ok {
			t.Errorf("text rendering missing %q:\n%s", name, tb.String())
		} else if want := fmt.Sprint(m.Quantile(q.perMille)); v != want {
			t.Errorf("text row %s = %s, want Quantile(%d) = %s", name, v, q.perMille, want)
		}
	}
	if strings.Contains(tb.String(), `lat_micros_p50{stage="idle"}`) {
		t.Error("text rendering emitted quantiles for an empty series")
	}

	var pb bytes.Buffer
	if err := snap.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	out := pb.String()
	for _, fam := range []string{"lat_micros_p50", "lat_micros_p90", "lat_micros_p99", "lat_micros_p999"} {
		if n := strings.Count(out, "# TYPE "+fam+" gauge\n"); n != 1 {
			t.Errorf("%s has %d TYPE lines, want 1:\n%s", fam, n, out)
		}
		for _, stage := range []string{"notify", "total"} {
			if !strings.Contains(out, fam+`{stage="`+stage+`"} `) {
				t.Errorf("exposition missing %s sample for stage %s:\n%s", fam, stage, out)
			}
		}
		if strings.Contains(out, fam+`{stage="idle"}`) {
			t.Errorf("exposition emitted %s for an empty series", fam)
		}
	}

	// Determinism: identical construction renders byte-identically.
	build := func() string {
		r2 := NewRegistry()
		h := r2.Histogram("d_micros", "", LatencyBuckets)
		for i := int64(1); i <= 1000; i++ {
			h.Observe(i * i)
		}
		var b bytes.Buffer
		if err := r2.Snapshot(7).WriteText(&b); err != nil {
			t.Fatal(err)
		}
		var p bytes.Buffer
		if err := r2.Snapshot(7).WritePrometheus(&p); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(r2.Snapshot(7))
		if err != nil {
			t.Fatal(err)
		}
		return b.String() + p.String() + string(js)
	}
	if build() != build() {
		t.Error("quantile-bearing snapshot renderings are not byte-identical")
	}
}

// wantQuantiles is the export set the renderers must produce: each
// family suffix and the per-mille rank its rows read.
var wantQuantiles = []struct {
	suffix   string
	perMille int64
}{{"p50", 500}, {"p90", 900}, {"p99", 990}, {"p999", 999}}

// textRows maps each row name of a WriteText rendering to its value.
func textRows(text string) map[string]string {
	rows := make(map[string]string)
	for _, line := range strings.Split(text, "\n")[1:] {
		if f := strings.Fields(line); len(f) == 2 {
			rows[f[0]] = f[1]
		}
	}
	return rows
}

// TestDecodedSnapshotRendersLikeLocal is procctl-top's -metrics path:
// a snapshot that crossed the wire as JSON carries only the buckets, and
// must render the same text and Prometheus bytes as the local one on
// both standard layouts, with quantile rows for the series that have
// data and none for the empty one. A sender that still ships quantile
// arrays decodes to the same snapshot.
func TestDecodedSnapshotRendersLikeLocal(t *testing.T) {
	r := NewRegistry()
	wall := r.Histogram(Name("span_micros", "stage", "total"), "span", LatencyBuckets)
	virt := r.Histogram("turnaround_micros", "virtual", TimeBuckets)
	r.Histogram(Name("span_micros", "stage", "idle"), "span", LatencyBuckets)
	r.Counter("polls_total", "polls").Add(3)
	for i := int64(1); i <= 500; i++ {
		wall.Observe(i * i)
		virt.Observe(i * 7919)
	}
	local := r.Snapshot(99)

	render := func(s *Snapshot) (string, string) {
		var tb, pb bytes.Buffer
		if err := s.WriteText(&tb); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePrometheus(&pb); err != nil {
			t.Fatal(err)
		}
		return tb.String(), pb.String()
	}
	wantText, wantProm := render(local)

	js, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	older := strings.ReplaceAll(string(js), `"buckets":[`, `"quantiles":[{"q":"0.5","v":1}],"buckets":[`)
	if older == string(js) {
		t.Fatal("no histogram in the JSON to give a quantile array")
	}
	for _, wire := range []struct{ name, line string }{
		{"current", string(js)},
		{"with quantile arrays", older},
	} {
		var decoded Snapshot
		if err := json.Unmarshal([]byte(wire.line), &decoded); err != nil {
			t.Fatalf("%s: %v", wire.name, err)
		}
		if text, prom := render(&decoded); text != wantText || prom != wantProm {
			t.Errorf("%s: decoded snapshot renders differently:\n%s%s\nwant:\n%s%s", wire.name, text, prom, wantText, wantProm)
		}
	}

	rows := textRows(wantText)
	for _, series := range []struct{ base, labels string }{
		{"span_micros", `{stage="total"}`},
		{"turnaround_micros", ""},
	} {
		m := local.Get(series.base + series.labels)
		for _, q := range wantQuantiles {
			fam := series.base + "_" + q.suffix
			want := fmt.Sprint(m.Quantile(q.perMille))
			if got := rows[fam+series.labels]; got != want {
				t.Errorf("text row %s%s = %q, want %s", fam, series.labels, got, want)
			}
			if sample := fam + series.labels + " " + want + "\n"; !strings.Contains(wantProm, sample) {
				t.Errorf("exposition missing %q", sample)
			}
			if n := strings.Count(wantProm, "# TYPE "+fam+" gauge\n"); n != 1 {
				t.Errorf("%s has %d TYPE lines, want 1", fam, n)
			}
		}
	}
	if strings.Contains(wantText+wantProm, `_p50{stage="idle"}`) || strings.Contains(wantText+wantProm, `_p999{stage="idle"}`) {
		t.Errorf("empty series rendered quantiles:\n%s%s", wantText, wantProm)
	}
	for name := range rows {
		if strings.HasPrefix(name, "polls_total_p") {
			t.Errorf("counter rendered a quantile row %s", name)
		}
	}
}
