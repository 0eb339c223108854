package metrics

import (
	"fmt"
	"math"
)

// LogBuckets returns strictly ascending, geometrically spaced histogram
// bounds covering [lo, hi] with perDecade bounds per factor of ten —
// the layout quantile estimation wants: a bucket's relative width, and
// therefore the estimator's worst-case relative error, is the constant
// 10^(1/perDecade)-1 across the whole range, where linear layouts are
// either coarse at the bottom or enormous at the top. Bounds are
// integers; in the sub-perDecade range near lo consecutive bounds are
// forced apart by 1, so the low buckets are exact.
func LogBuckets(lo, hi int64, perDecade int) []int64 {
	if lo < 1 || hi <= lo || perDecade < 1 {
		panic(fmt.Sprintf("metrics: LogBuckets(%d, %d, %d): need 1 <= lo < hi and perDecade >= 1", lo, hi, perDecade))
	}
	var out []int64
	prev := int64(0)
	for i := 0; ; i++ {
		b := int64(math.Round(float64(lo) * math.Pow(10, float64(i)/float64(perDecade))))
		if b <= prev {
			b = prev + 1
		}
		out = append(out, b)
		if b >= hi {
			return out
		}
		prev = b
	}
}

// LatencyBuckets is the standard log-bucketed layout for control-plane
// span latencies in microseconds: 1 µs to 10 s at 9 buckets per decade
// (relative resolution ~29%, which interpolation tightens further).
// Layouts this size take the binary-search Observe path.
var LatencyBuckets = LogBuckets(1, 10_000_000, 9)

// quantiles is the standard export set: the family suffix each
// renderer appends to a histogram's base name, and the per-mille rank
// Quantile estimates for it.
var quantiles = []struct {
	suffix   string // text/Prometheus family suffix: base_p99
	perMille int64
}{
	{"p50", 500},
	{"p90", 900},
	{"p99", 990},
	{"p999", 999},
}

// Quantile estimates the perMille-th per-mille quantile (500 = median,
// 990 = p99, 999 = p999) of a histogram series from its cumulative
// buckets. The estimate interpolates linearly inside the bucket holding
// the target rank using integer arithmetic only, so it is deterministic
// and exact to within one bucket's width; observations beyond the last
// finite bound clamp to that bound. Non-histogram or empty series
// return 0.
func (m *Metric) Quantile(perMille int64) int64 {
	n := m.Count
	if n <= 0 || len(m.Bounds) == 0 || len(m.Buckets) != len(m.Bounds)+1 {
		return 0
	}
	if perMille < 0 {
		perMille = 0
	}
	if perMille > 1000 {
		perMille = 1000
	}
	rank := (n*perMille + 999) / 1000 // ceil(n * q)
	if rank < 1 {
		rank = 1
	}
	// Buckets are cumulative: find the first bucket reaching the rank.
	i := 0
	for i < len(m.Buckets) && m.Buckets[i] < rank {
		i++
	}
	if i >= len(m.Bounds) {
		// Rank lands in the +Inf bucket: the layout cannot resolve it.
		return m.Bounds[len(m.Bounds)-1]
	}
	lo := int64(0)
	below := int64(0)
	if i > 0 {
		lo = m.Bounds[i-1]
		below = m.Buckets[i-1]
	}
	hi := m.Bounds[i]
	in := m.Buckets[i] - below
	// rank-below is in [1, in]; spread the bucket's observations evenly
	// over (lo, hi].
	return lo + (hi-lo)*(rank-below)/in
}

// hasQuantiles reports whether the renderers export quantile rows for
// the series: histograms that have data.
func (m *Metric) hasQuantiles() bool { return m.Count > 0 && len(m.Bounds) > 0 }
