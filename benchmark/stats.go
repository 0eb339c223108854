package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the zero-based nearest-rank index of the q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// latencies is a pool of per-operation latency samples in nanoseconds.
// 32 bits hold 4.29 s, far above any single operation timed here; a
// longer one saturates instead of wrapping.
type latencies []uint32

func (l *latencies) add(ns int64) {
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	if ns < 0 {
		ns = 0
	}
	*l = append(*l, uint32(ns))
}

// sorted sorts the pool in place and returns it.
func (l latencies) sorted() latencies {
	slices.Sort(l)
	return l
}

// at returns the nearest-rank q-quantile in nanoseconds of an already
// sorted pool, or 0 when it is empty.
func (l latencies) at(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	return float64(l[rank(len(l), q)])
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), because that is the statistic the benchmark
// contract is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// atTicks is at for samples that were truncated to whole ticks of the
// given length in nanoseconds (flight events carry whole microseconds):
// within the tick the q-quantile falls in, it interpolates by rank, as
// a histogram quantile does, so the estimate moves smoothly instead of
// jumping a whole tick. The pool must be sorted.
func (l latencies) atTicks(q float64, tick float64) float64 {
	if len(l) == 0 {
		return 0
	}
	v := l[rank(len(l), q)]
	below := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	upto := sort.Search(len(l), func(i int) bool { return l[i] > v })
	frac := (q*float64(len(l)) - float64(below)) / float64(upto-below)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return float64(v) + tick*frac
}
