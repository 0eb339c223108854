package trace

import (
	"fmt"
	"strings"

	"procctl/internal/sim"
)

// Table renders aligned text tables for experiment output.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case sim.Duration:
			row[i] = fmt.Sprintf("%.2fs", v.Seconds())
		case sim.Time:
			row[i] = fmt.Sprintf("%.1fs", v.Seconds())
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// AsciiSeries renders an integer time series as a small text chart:
// one line per sample bucket, with a bar of '#' characters. It is used
// to print Figure 5's process-count-over-time plots.
func AsciiSeries(title string, times []sim.Time, counts []int, maxBar int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	peak := 1
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	scale := 1.0
	if peak > maxBar {
		scale = float64(maxBar) / float64(peak)
	}
	for i, tm := range times {
		n := int(float64(counts[i])*scale + 0.5)
		fmt.Fprintf(&b, "%7.1fs |%-*s %d\n", tm.Seconds(), maxBar, strings.Repeat("#", n), counts[i])
	}
	return b.String()
}
