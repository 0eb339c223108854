package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Metric is one series in a snapshot. Counter and gauge values are in
// Value; histograms carry Count, Sum, cumulative Buckets (one per
// Bound, plus a final +Inf bucket equal to Count). Quantile estimates
// are not stored: Quantile derives them from Bounds and Buckets, so a
// snapshot decoded off the wire renders the same rows as a local one.
type Metric struct {
	Name    string  `json:"name"`
	Base    string  `json:"base,omitempty"`
	Kind    string  `json:"kind"`
	Help    string  `json:"help,omitempty"`
	Value   int64   `json:"value,omitempty"`
	Count   int64   `json:"count,omitempty"`
	Sum     int64   `json:"sum,omitempty"`
	Bounds  []int64 `json:"bounds,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// labels returns the series' label block including braces, or "".
func (m *Metric) labels() string { return m.Name[len(m.Base):] }

// Snapshot is the state of every series at one instant, sorted by
// series name. At is the caller-supplied timestamp in microseconds:
// virtual (sim.Time) in the simulator, Unix in the real runtime.
type Snapshot struct {
	At      int64    `json:"at"`
	Metrics []Metric `json:"metrics"`
}

// Get returns the named series, or nil.
func (s *Snapshot) Get(name string) *Metric {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// MarshalJSON renders the snapshot deterministically (field order is
// fixed by the struct definitions; series are pre-sorted by name).
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot // shed the method to avoid recursion
	return json.Marshal((*alias)(s))
}

// WriteText renders the snapshot as a sorted, aligned two-column table.
// Histograms expand into _count and _sum rows plus one row per
// estimated quantile (_p50/_p90/_p99/_p999, once the series has data);
// bucket detail is left to the JSON and Prometheus renderings.
func (s *Snapshot) WriteText(w io.Writer) error {
	type row struct {
		name  string
		value int64
	}
	var rows []row
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Kind == KindHistogram.String() {
			rows = append(rows,
				row{m.Base + "_count" + m.labels(), m.Count},
				row{m.Base + "_sum" + m.labels(), m.Sum})
			if m.hasQuantiles() {
				for _, q := range quantiles {
					rows = append(rows, row{m.Base + "_" + q.suffix + m.labels(), m.Quantile(q.perMille)})
				}
			}
			continue
		}
		rows = append(rows, row{m.Name, m.Value})
	}
	width := 0
	for _, r := range rows {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	if _, err := fmt.Fprintf(w, "metrics at %dµs\n", s.At); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-*s %d\n", width, r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}

// mergeLabels splices extra into a label block: ("", `le="5"`) →
// `{le="5"}`, (`{a="1"}`, `le="5"`) → `{a="1",le="5"}`.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers per base
// name, histograms as cumulative _bucket/_sum/_count series. Histogram
// quantile estimates are additionally exported as derived gauge
// families (<base>_p50 … <base>_p999) — the exposition format has no
// quantile slot on the histogram type itself, and a derived family
// keeps the output spec-valid while letting dashboards read tails
// without a PromQL histogram_quantile step.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	// Series are sorted by full name; group them by base so each base
	// gets exactly one header block. Labeled and unlabeled series of
	// different bases can interleave in name order, so collect first.
	var bases []string
	byBase := make(map[string][]*Metric)
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if _, ok := byBase[m.Base]; !ok {
			bases = append(bases, m.Base)
		}
		byBase[m.Base] = append(byBase[m.Base], m)
	}
	// bases is in first-appearance order of a name-sorted list, which
	// is itself sorted: a base always appears first via its smallest
	// full name.
	for _, base := range bases {
		group := byBase[base]
		if h := group[0].Help; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, group[0].Kind); err != nil {
			return err
		}
		for _, m := range group {
			if m.Kind == KindHistogram.String() {
				labels := m.labels()
				for i, b := range m.Bounds {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						base, mergeLabels(labels, fmt.Sprintf("le=%q", fmt.Sprint(b))), m.Buckets[i]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabels(labels, `le="+Inf"`), m.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
					base, labels, m.Sum, base, labels, m.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", m.Name, m.Value); err != nil {
				return err
			}
		}
		if group[0].Kind == KindHistogram.String() {
			if err := writeQuantileFamilies(w, base, group); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeQuantileFamilies emits the derived <base>_pXX gauge families for
// one histogram family: one TYPE header per derived family, then one
// sample per series that has data. Families whose every series is empty
// are omitted entirely.
func writeQuantileFamilies(w io.Writer, base string, group []*Metric) error {
	if !slices.ContainsFunc(group, (*Metric).hasQuantiles) {
		return nil
	}
	for _, q := range quantiles {
		fam := base + "_" + q.suffix
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", fam); err != nil {
			return err
		}
		for _, m := range group {
			if !m.hasQuantiles() {
				continue // empty series: no estimate to report
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", fam, m.labels(), m.Quantile(q.perMille)); err != nil {
				return err
			}
		}
	}
	return nil
}
