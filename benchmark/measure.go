package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"
)

// How the end-to-end numbers are made steady.
//
// The reference host is a two-vCPU microVM sharing its physical cores
// with neighbours: for seconds to minutes at a time everything runs a
// fifth or more slower, and a fixed arithmetic loop timed next to the
// workload does not even track it (README.md, "Host noise": scaling by
// such a probe was tried and made the spread worse). A median of raw
// repetition times reads whichever mood the host was in for most of the
// run. Two things blunt that:
//
//   - a repetition is short (a quarter of a second or so, dozens per
//     run; the two simulator figures cannot be cut below a call), so
//     that in most runs many repetitions fall inside a calm stretch;
//   - of the repetitions only the faster half, by time, is used, and its
//     median reported — the first quartile of all repetitions. Outside
//     interference only ever adds time, so the fast end is where the
//     code's own speed shows; a quartile, unlike the single fastest
//     repetition, does not hang on one lucky reading.
//
// Counts (allocations per operation) are not times and are plain
// medians over all repetitions. The table a run prints shows the plain
// median beside the reported figure. fleet_poll, whose round trips are
// at the mercy of the host's wake-up cost for longer than a run lasts,
// additionally scales its times by a socket echo measured around every
// repetition (runFleetPoll).

// repSample is what one timed repetition reports.
type repSample struct {
	wall    time.Duration // time the repetition's fixed amount of work took
	latency float64       // typical latency of the repetition's operations, ns
	allocs  float64       // heap allocations per operation
}

// measured is every repetition of a run.
type measured struct {
	walls  []float64 // seconds
	lats   []float64 // ns
	allocs []float64
}

// measure runs rep until the budget is spent and at least minReps
// times, collecting garbage before each repetition so one repetition's
// heap does not bill the next. It stops at the first error.
func (e *env) measure(r *report, rep func(i int) (repSample, error)) measured {
	var m measured
	start := time.Now()
	for i := 0; i < e.sz.minReps || time.Since(start) < e.budget; i++ {
		runtime.GC()
		s, err := rep(i)
		if err != nil {
			r.fail("%v", err)
			return m
		}
		m.walls = append(m.walls, s.wall.Seconds())
		if s.latency > 0 { // a repetition too short to see one operation finish has none
			m.lats = append(m.lats, s.latency)
		}
		m.allocs = append(m.allocs, s.allocs)
	}
	return m
}

// timedSetup times one set-up in seconds.
func timedSetup(fn func() error) (float64, error) {
	runtime.GC()
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// fasterHalf returns the median of the faster half of xs (smaller is
// faster), or 0 for none.
func fasterHalf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s[:(len(s)+1)/2])
}

// endToEnd sets the time and count metrics every workload shares from
// its repetitions; ops is the work one repetition does. Times are
// multiplied by scale: 1, except where a workload has a yardstick for
// the host's mood that demonstrably tracks it (fleet_poll).
func (m measured) endToEnd(e *env, r *report, ops float64, unit string, scale float64) {
	if len(m.walls) == 0 {
		return
	}
	fmt.Fprintf(e.log, "  %d timed repetitions of %.0f %s: median %.5g %s/s, faster half %.5g, fastest %.5g; time scale %.3f\n",
		len(m.walls), ops, unit, ops/median(m.walls), unit, ops/fasterHalf(m.walls), ops/slices.Min(m.walls), scale)
	if e.tr != nil {
		return
	}
	r.set("ops_per_s", ops/(fasterHalf(m.walls)*scale))
	r.set("latency_us", fasterHalf(m.lats)*scale/1e3)
	r.set("allocs_per_op", median(m.allocs))
}
