// Package stats provides the counter sets, plain-text table rendering
// and state digests the simulator and benchmark harness use to report
// results.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Counters is a named set of monotonic event counts. The zero value is
// ready to use; the map is allocated on first write.
type Counters struct {
	m map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]uint64)} }

// Add increments a counter by n.
func (c *Counters) Add(name string, n uint64) {
	if c.m == nil {
		c.m = make(map[string]uint64)
	}
	c.m[name] += n
}

// Get returns a counter's value (zero if never touched).
func (c *Counters) Get(name string) uint64 { return c.m[name] }

// Merge adds every counter in other into c.
func (c *Counters) Merge(other *Counters) {
	for k, v := range other.m {
		c.Add(k, v)
	}
}

// Names returns all counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the underlying map.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Digest is a 64-bit FNV-1a hash fed one little-endian word at a time:
// every protocol's StateDigest folds its state through it. Start from
// NewDigest.
type Digest uint64

// NewDigest returns an empty digest (the FNV-1a offset basis).
func NewDigest() Digest { return 14695981039346656037 }

// Word folds v's eight bytes, least significant first.
func (d *Digest) Word(v uint64) {
	for i := 0; i < 64; i += 8 {
		*d = (*d ^ Digest(byte(v>>i))) * 1099511628211
	}
}

// Table is a plain-text table with a title, for harness output that
// mirrors the paper's tables and figure series.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table, column-aligned, to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// A row may carry more cells than the header; cells past the
			// last column print unpadded instead of panicking.
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float with three significant decimals for table cells.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// D formats an integer counter for table cells.
func D(v uint64) string { return fmt.Sprintf("%d", v) }
