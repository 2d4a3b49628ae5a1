// Package tablefmt renders aligned plain-text tables and simple CSV for
// the experiment harness — the reproduction's equivalent of the paper's
// figures and tables.
package tablefmt

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them column-aligned.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowStrings appends a pre-formatted row.
func (t *Table) AddRowStrings(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}

	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.title)))
		b.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		// Trim trailing spaces for clean diffs.
		s := b.String()
		trimmed := strings.TrimRight(s, " ")
		b.Reset()
		b.WriteString(trimmed)
		b.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
