package metrics

import (
	"bytes"
	"encoding/json"
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
	if empty.Quantiles != nil {
		t.Errorf("empty histogram exported quantiles: %v", empty.Quantiles)
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
	if len(m.Quantiles) != 4 {
		t.Fatalf("exported %d quantile points, want 4: %v", len(m.Quantiles), m.Quantiles)
	}
	wantQ := []string{"0.5", "0.9", "0.99", "0.999"}
	for i, qp := range m.Quantiles {
		if qp.Q != wantQ[i] {
			t.Errorf("quantile %d labeled %q, want %q", i, qp.Q, wantQ[i])
		}
		if qp.V != m.Quantile([]int64{500, 900, 990, 999}[i]) {
			t.Errorf("quantile %s point %d disagrees with Quantile()", qp.Q, qp.V)
		}
	}

	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"quantiles":[{"q":"0.5"`) {
		t.Errorf("JSON missing quantiles array:\n%s", js)
	}

	var tb bytes.Buffer
	if err := snap.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_micros_p50{stage="total"}`,
		`lat_micros_p90{stage="total"}`,
		`lat_micros_p99{stage="total"}`,
		`lat_micros_p999{stage="total"}`,
	} {
		if !strings.Contains(tb.String(), want) {
			t.Errorf("text rendering missing %q:\n%s", want, tb.String())
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
