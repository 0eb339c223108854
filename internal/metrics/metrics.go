// Package metrics is the repository's unified metrics layer: a
// stdlib-only registry of counters, gauges, and fixed-bucket histograms
// shared by the deterministic simulator (kernel, machine, threads,
// ctrl) and the real runtime (coordinator, its socket server, journal).
//
// Determinism contract: the package never reads a clock. Every snapshot
// is keyed by a caller-supplied instant — sim.Time microseconds in the
// simulator, Unix microseconds in the real runtime — and all metric
// values are int64, so rendering never goes through float formatting.
// Two same-seed simulation runs therefore produce byte-identical
// snapshots (asserted by internal/experiments). The package is in
// procctl-vet's SimPackages set: a map-order leak inside it is a vet
// failure.
//
// Concurrency: a registered series is updated lock-free (sync/atomic),
// so a hot path of the real runtime that counts a fact here pays one
// atomic add, and the registry mutex guards only the name map and the
// collector list. A layer that keeps a fact in a record of its own —
// every simulated layer does: the kernel, the threads runtime, the
// central server — registers nothing while it runs. Its collector
// (OnCollect) derives the series from that record into a registry made
// for one read, at every Snapshot, so its hot path pays a plain add
// into its own struct (a Tally for a histogram) and a run nobody reads
// metrics from names, allocates and updates no series at all.
package metrics

import (
	"fmt"
	"slices"
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

	// handle is the series' Counter, Gauge or Histogram (all three are
	// this one pointer): the registry hands out its address, so asking
	// for a series again allocates nothing.
	handle struct{ m *metric }
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
// sits on the coordinator's rebalance and request paths; it costs one
// bounds scan plus three atomic adds.
func (h *Histogram) Observe(v int64) {
	h.m.buckets[bucketOf(h.m.bounds, v)].Add(1)
	h.m.count.Add(1)
	h.m.sum.Add(v)
}

// bucketOf returns the index of the bucket v falls in: the first bound
// >= v, or len(bounds) for the +Inf bucket.
func bucketOf(bounds []int64, v int64) int {
	i := 0
	if len(bounds) <= linearScanMax {
		for i < len(bounds) && bounds[i] < v {
			i++
		}
		return i
	}
	j := len(bounds)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if bounds[mid] < v {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return i
}

// Add adds t's observations to h, whose layout must be TimeBuckets': a
// collector publishes a layer's Tally this way.
func (h *Histogram) Add(t *Tally) {
	if !slices.Equal(h.m.bounds, timeBounds[:]) {
		panic(fmt.Sprintf("metrics: histogram %s does not have TimeBuckets' layout", h.m.name))
	}
	for i, n := range t.buckets {
		h.m.buckets[i].Add(n)
	}
	h.m.count.Add(t.count)
	h.m.sum.Add(t.sum)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.m.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.m.sum.Load() }

// TimeBuckets is the standard bucket layout for virtual- or wall-time
// durations in microseconds: decades from 100 µs to 100 s.
var TimeBuckets = timeBounds[:]

var timeBounds = [...]int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}

// Tally is a histogram over TimeBuckets that a single-goroutine layer
// keeps in a record of its own: plain counts, no atomics and no series
// until a collector publishes it with Histogram.Add. The zero value is
// empty.
type Tally struct {
	buckets    [len(timeBounds) + 1]int64
	count, sum int64
}

// Observe records v in the bucket Histogram.Observe would choose.
func (t *Tally) Observe(v int64) {
	t.buckets[bucketOf(timeBounds[:], v)]++
	t.count++
	t.sum += v
}

// Registry holds named metrics. The zero value is an empty registry;
// its maps are made at the first registration, so one whose series are
// all derived by collectors is one small struct.
type Registry struct {
	mu         sync.Mutex
	byName     map[string]*metric
	baseKind   map[string]Kind // kind per base name: one TYPE per family
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

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
	if r.byName == nil {
		r.byName, r.baseKind = make(map[string]*metric), make(map[string]Kind)
	}
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
	m.handle.m = m
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
	return (*Counter)(&r.register(name, help, KindCounter, nil).handle)
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return (*Gauge)(&r.register(name, help, KindGauge, nil).handle)
}

// Histogram returns the named histogram, registering it on first use.
// Nil bounds select TimeBuckets. The bucket layout is fixed at first
// registration.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	return (*Histogram)(&r.register(name, help, KindHistogram, bounds).handle)
}

// Value returns the current value of a counter or gauge, and whether
// the series exists (false also for histograms). A series this registry
// does not hold is looked for among the collectors' (OnCollect), which
// then run: a derived series reads its value at this instant.
func (r *Registry) Value(name string) (int64, bool) {
	m := r.lookup(name)
	if m == nil {
		m = r.derive().lookup(name)
	}
	if m == nil || m.kind == KindHistogram {
		return 0, false
	}
	return m.val.Load(), true
}

func (r *Registry) lookup(name string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// OnCollect registers f to run at every Snapshot, in registration
// order. f derives its layer's series into d, a registry made for that
// one read: it registers, names and fills them there, from the record
// the layer keeps anyway. Series of one name from several collectors
// add up (counters, histograms) or keep the last value set (gauges). f
// may instead refresh gauges of this registry that mirror live state
// (open connections, members). f must not call Snapshot or Value, and
// neither may be called while holding a lock f takes.
func (r *Registry) OnCollect(f func(d *Registry)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// derive runs the collectors into a new registry and returns it.
func (r *Registry) derive() *Registry {
	r.mu.Lock()
	collectors := slices.Clone(r.collectors)
	r.mu.Unlock()
	d := new(Registry)
	for _, f := range collectors {
		f(d)
	}
	return d
}

// Snapshot runs the collectors and returns every series, the registry's
// own and the derived ones, sorted by name, stamped with the caller's
// instant: sim.Time microseconds in the simulator, Unix microseconds in
// the real runtime. A derived series named like one of the registry's
// own is a naming bug and panics.
func (r *Registry) Snapshot(at int64) *Snapshot {
	var ms []*metric
	for _, reg := range [...]*Registry{r, r.derive()} {
		reg.mu.Lock()
		for _, m := range reg.byName {
			ms = append(ms, m)
		}
		reg.mu.Unlock()
	}
	slices.SortFunc(ms, func(a, b *metric) int { return strings.Compare(a.name, b.name) })
	s := &Snapshot{At: at, Metrics: make([]Metric, len(ms))}
	for i, m := range ms {
		if i > 0 && m.name == ms[i-1].name {
			panic(fmt.Sprintf("metrics: %s is both registered and derived", m.name))
		}
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
		default:
			e.Value = m.val.Load()
		}
		s.Metrics[i] = e
	}
	return s
}
