// Package bench is the experiment harness: it parameterises, times and
// tabulates the experiments of DESIGN.md §10 — E1–E8, which reproduce
// the paper's constructions and demonstrate the tractability frontier
// empirically, the E16/E17 ablations and the A and M series. cmd/wdbench renders the tables; bench_test.go exposes
// the same workloads as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim the table checks
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Agreement reports whether every agreement-bearing column ("agree",
// "oracle agrees") reads "true" in every row. Experiment tables use
// these columns for cross-validation verdicts, so a false cell means
// two evaluation paths diverged; wdbench turns that into a non-zero
// exit so CI smoke runs fail fast.
func (t *Table) Agreement() bool {
	for i, h := range t.Header {
		if h != "agree" && h != "oracle agrees" {
			continue
		}
		for _, row := range t.Rows {
			if i < len(row) && row[i] != "true" {
				return false
			}
		}
	}
	return true
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// timed runs f and returns its wall-clock duration.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ms formats a duration with three significant-ish digits.
func ms(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
