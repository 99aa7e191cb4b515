package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a figure or table result: named columns of float rows, with
// CSV and aligned-text renderers. All experiment runners return Tables so
// the CLI, the benches, and EXPERIMENTS.md share one representation.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]float64
}

// NewTable creates an empty table with the given title and column names.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row arity %d, table arity %d",
			len(values), len(t.Columns)))
	}
	t.Rows = append(t.Rows, values)
}

// WriteCSV emits the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = strconv.FormatFloat(v, 'g', 6, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Render emits the title plus an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for j, row := range t.Rows {
		cells[j] = make([]string, len(row))
		for i, v := range row {
			s := strconv.FormatFloat(v, 'f', 2, 64)
			s = strings.TrimSuffix(strings.TrimRight(s, "0"), ".")
			if s == "" || s == "-" {
				s = "0"
			}
			cells[j][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
