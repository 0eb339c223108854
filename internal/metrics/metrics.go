// Package metrics is the repository's unified metrics layer: a
// stdlib-only registry of counters, gauges, and fixed-bucket histograms
// shared by the deterministic simulator (kernel, machine, threads,
// ctrl) and the real runtime (coordinator, pool).
//
// Determinism contract: the package never reads a clock. Every snapshot
// is keyed by a caller-supplied instant — sim.Time microseconds in the
// simulator, Unix microseconds in the real runtime — and all metric
// values are int64, so rendering never goes through float formatting.
// Two same-seed simulation runs therefore produce byte-identical
// snapshots (asserted by internal/experiments). The package is in
// procctl-vet's SimPackages set: wall-clock reads, math/rand, and
// goroutine spawns inside it are build failures.
//
// Concurrency: metric updates are lock-free (sync/atomic), so simulated
// hot paths pay one atomic add; the registry mutex guards only the name
// map and collector list. In the single-goroutine simulator the atomics
// are uncontended; in the real runtime they make the registry safe for
// concurrent use.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus-style kind name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// metric is one registered series. base is the name without the label
// block; for unlabeled series base == name.
type metric struct {
	name string
	base string
	help string
	kind Kind

	val atomic.Int64 // counter, gauge

	bounds  []int64        // histogram upper bounds, ascending
	buckets []atomic.Int64 // one per bound, plus +Inf at the end
	count   atomic.Int64
	sum     atomic.Int64
}

// Counter is a monotonically increasing int64.
type Counter struct{ m *metric }

// Inc adds 1.
func (c *Counter) Inc() { c.m.val.Add(1) }

// Add adds n, which must be non-negative: counters are monotone.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: negative add %d to counter %s", n, c.m.name))
	}
	c.m.val.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.m.val.Load() }

// Gauge is an instantaneous int64 value.
type Gauge struct{ m *metric }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.m.val.Store(v) }

// Add moves the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.m.val.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.m.val.Load() }

// Histogram counts int64 observations into a fixed bucket layout.
type Histogram struct{ m *metric }

// linearScanMax is the layout size up to which Observe sweeps the
// bounds linearly: small layouts (TimeBuckets has 7) are faster under a
// branch-predictable sweep, while the log-bucketed quantile layouts
// (LatencyBuckets has ~64) want the hand-rolled binary search — still
// closure- and allocation-free, unlike sort.Search.
const linearScanMax = 16

// Observe records v: the first bucket whose upper bound is >= v (the
// Prometheus "le" convention), or the implicit +Inf bucket. Observe
// sits on the kernel's dispatch path and the coordinator's rebalance
// path; it costs one bounds scan plus three atomic adds.
func (h *Histogram) Observe(v int64) {
	bounds := h.m.bounds
	i := 0
	if len(bounds) <= linearScanMax {
		for i < len(bounds) && bounds[i] < v {
			i++
		}
	} else {
		j := len(bounds)
		for i < j {
			mid := int(uint(i+j) >> 1)
			if bounds[mid] < v {
				i = mid + 1
			} else {
				j = mid
			}
		}
	}
	h.m.buckets[i].Add(1)
	h.m.count.Add(1)
	h.m.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.m.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.m.sum.Load() }

// TimeBuckets is the standard bucket layout for virtual- or wall-time
// durations in microseconds: decades from 100 µs to 100 s.
var TimeBuckets = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	byName     map[string]*metric
	baseKind   map[string]Kind // kind per base name: one TYPE per family
	collectors []func()
}

// NewRegistry returns an empty registry. The maps are pre-sized for a
// typical simulation's series population (the kernel alone registers
// dozens of per-CPU and per-app series) so startup registration does
// not rehash repeatedly.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric, 128), baseKind: make(map[string]Kind, 64)}
}

// Name formats a metric name with label pairs:
//
//	Name("sim_cpu_busy_micros", "cpu", "3")  →  sim_cpu_busy_micros{cpu="3"}
//
// Callers must pass label keys in a fixed order; the formatted name is
// the series identity.
func Name(base string, labels ...string) string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %s", base))
	}
	if len(labels) == 0 {
		return base
	}
	b := append(make([]byte, 0, 64), base...)
	b = append(b, '{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, labels[i]...), '=')
		b = strconv.AppendQuote(b, labels[i+1])
	}
	return string(append(b, '}'))
}

// baseOf strips the label block from a series name.
func baseOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register returns the existing series or creates one. Re-registering
// with a different kind panics: it is always a naming bug.
func (r *Registry) register(name, help string, kind Kind, bounds []int64) *metric {
	if name == "" || strings.ContainsAny(name, " \n\t") {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	base := baseOf(name)
	if k, ok := r.baseKind[base]; ok && k != kind {
		panic(fmt.Sprintf("metrics: series %s is %v but family %s is %v", name, kind, base, k))
	}
	r.baseKind[base] = kind
	m := &metric{name: name, base: base, help: help, kind: kind}
	if kind == KindHistogram {
		if len(bounds) == 0 {
			bounds = TimeBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %s bounds not ascending", name))
			}
		}
		m.bounds = append([]int64(nil), bounds...)
		m.buckets = make([]atomic.Int64, len(bounds)+1)
	}
	r.byName[name] = m
	return m
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{m: r.register(name, help, KindCounter, nil)}
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{m: r.register(name, help, KindGauge, nil)}
}

// Histogram returns the named histogram, registering it on first use.
// Nil bounds select TimeBuckets. The bucket layout is fixed at first
// registration.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	return &Histogram{m: r.register(name, help, KindHistogram, bounds)}
}

// Remove deletes a series (e.g. a per-member gauge whose member
// unregistered). Removing an unknown name is a no-op.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	delete(r.byName, name)
	r.mu.Unlock()
}

// Value returns the current value of a counter or gauge, and whether
// the series exists (false also for histograms).
func (r *Registry) Value(name string) (int64, bool) {
	r.mu.Lock()
	m, ok := r.byName[name]
	r.mu.Unlock()
	if !ok || m.kind == KindHistogram {
		return 0, false
	}
	return m.val.Load(), true
}

// OnCollect registers f to run at the start of every Snapshot, in
// registration order — the hook layers use to refresh gauges that
// mirror live state (per-CPU busy time, queue depths) lazily instead of
// on every event. f must not call Snapshot, and Snapshot must not be
// called while holding a lock f takes.
func (r *Registry) OnCollect(f func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// Snapshot runs the collectors and returns every series, sorted by
// name, stamped with the caller's instant: sim.Time microseconds in the
// simulator, Unix microseconds in the real runtime.
func (r *Registry) Snapshot(at int64) *Snapshot {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, f := range collectors {
		f()
	}

	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	s := &Snapshot{At: at, Metrics: make([]Metric, 0, len(names))}
	for _, name := range names {
		m := r.byName[name]
		e := Metric{Name: m.name, Base: m.base, Kind: m.kind.String(), Help: m.help}
		switch m.kind {
		case KindHistogram:
			e.Count = m.count.Load()
			e.Sum = m.sum.Load()
			e.Bounds = append([]int64(nil), m.bounds...)
			e.Buckets = make([]int64, len(m.buckets))
			cum := int64(0)
			for i := range m.buckets {
				cum += m.buckets[i].Load()
				e.Buckets[i] = cum // cumulative, Prometheus-style
			}
			e.Quantiles = e.quantilePoints()
		default:
			e.Value = m.val.Load()
		}
		s.Metrics = append(s.Metrics, e)
	}
	r.mu.Unlock()
	return s
}
