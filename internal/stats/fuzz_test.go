package stats

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzTableRender feeds Table.Render arbitrary header and row shapes —
// empty headers, rows wider and narrower than the header, empty cells,
// control characters in content — and requires that rendering never
// panics and never errors on an in-memory writer. (A wide-row panic in
// writeRow was a real bug fixed in PR 1; this locks the whole shape
// space.)
func FuzzTableRender(f *testing.F) {
	f.Add("Title", "a,b,c", "1,2,3;4,5,6")
	f.Add("", "", "")              // fully empty table
	f.Add("t", "one", "1,2,3,4,5") // row much wider than header
	f.Add("t", "a,b,c,d,e", "1")   // row narrower than header
	f.Add("\x00\n", ",,,", ";;;")  // degenerate separators
	f.Add("wide", "h", strings.Repeat("x,", 60)+";"+strings.Repeat("y", 300))
	f.Fuzz(func(t *testing.T, title, headerSpec, rowSpec string) {
		tbl := &Table{Title: title}
		if headerSpec != "" {
			tbl.Header = strings.Split(headerSpec, ",")
		}
		if rowSpec != "" {
			for _, row := range strings.Split(rowSpec, ";") {
				tbl.AddRow(strings.Split(row, ",")...)
			}
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatalf("Render: %v", err)
		}
	})
}
