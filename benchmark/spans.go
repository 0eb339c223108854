package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (spans inside internal/ are a later issue). Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Op     string           `json:"op"`   // the layer boundary, e.g. "sim.run"
	Name   string           `json:"name"` // the instance, e.g. "fig4/on"
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads call it
// unconditionally and the untraced path pays one nil check per call.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(parent int64, op, name string) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// count attaches a count measured at the span's boundary.
func (t *tracer) count(id int64, key string, n int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	if sp.Counts == nil {
		sp.Counts = make(map[string]int64)
	}
	sp.Counts[key] += n
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, sp := range t.spans {
		if sp.End >= sp.Start {
			out = append(out, sp)
		}
	}
	return out
}

// selfRow is one line of the self-time table: all spans of one op.
type selfRow struct {
	Op    string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of (duration - interval covered by children)
}

// selfTimes computes, per op, total and self time. A span's self time
// is its duration minus the part of its interval that its direct
// children cover; children may overlap each other (parallel drivers),
// so coverage is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []selfRow {
	children := make(map[int64][][2]int64)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	rows := make(map[string]*selfRow)
	for _, sp := range spans {
		r := rows[sp.Op]
		if r == nil {
			r = &selfRow{Op: sp.Op}
			rows[sp.Op] = r
		}
		dur := sp.End - sp.Start
		r.Count++
		r.Total += time.Duration(dur)
		r.Self += time.Duration(dur - covered(children[sp.ID], sp.Start, sp.End))
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			sum += curHi - curLo
		}
	}
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e <= s {
			continue
		}
		if curHi < curLo || s > curHi {
			flush()
			curLo, curHi = s, e
		} else if e > curHi {
			curHi = e
		}
	}
	flush()
	return sum
}

// closure reports how far the self times in the subtree of each span
// of op are from summing to that span's own duration, as the largest
// relative error seen, and how many spans it looked at. Self times
// partition an interval whose children run one after another, so the
// error is 0 unless a child escapes its parent — which is what the
// acceptance check "self times sum to within 10 % of the enclosing
// span" guards. It is meant for the sequential trees (cycle, figure);
// parallel siblings legitimately sum to more than the wall.
func closure(spans []span, op string) (worst float64, n int) {
	kids := make(map[int64][]int)
	for i, sp := range spans {
		kids[sp.Parent] = append(kids[sp.Parent], i)
	}
	var subtreeSelf func(i int) int64
	subtreeSelf = func(i int) int64 {
		sp := spans[i]
		var iv [][2]int64
		for _, k := range kids[sp.ID] {
			iv = append(iv, [2]int64{spans[k].Start, spans[k].End})
		}
		self := (sp.End - sp.Start) - covered(iv, sp.Start, sp.End)
		for _, k := range kids[sp.ID] {
			self += subtreeSelf(k)
		}
		return self
	}
	for i, sp := range spans {
		if sp.Op != op || sp.End <= sp.Start {
			continue
		}
		dur := float64(sp.End - sp.Start)
		if err := math.Abs(float64(subtreeSelf(i))-dur) / dur; err > worst {
			worst = err
		}
		n++
	}
	return worst, n
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// printSelfTable renders the self-time table.
func printSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span op", "count", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f\n", r.Op, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}
