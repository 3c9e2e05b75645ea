// Package experiments implements the reproduction's experiment harness:
// one function per paper table/figure (E1–E25, per DESIGN.md) plus the
// design-choice ablations (A1–A11), listed once in Registry, which
// cmd/nxbench renders and bench_test.go exercises.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output: an id, headline, the clock its
// numbers are measured on, column headers, and formatted rows.
type Table struct {
	ID     string
	Title  string
	Clock  Clock
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render pretty-prints the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s", t.ID, t.Title)
	if t.Clock != "" {
		fmt.Fprintf(w, " [%s]", t.Clock)
	}
	fmt.Fprintln(w)
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
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Cell helpers keep row formatting consistent across experiments.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func gbs(v float64) string { return fmt.Sprintf("%.2f GB/s", v/1e9) }
func mbs(v float64) string { return fmt.Sprintf("%.0f MB/s", v/1e6) }
func us(sec float64) string {
	return fmt.Sprintf("%.1f us", sec*1e6)
}
