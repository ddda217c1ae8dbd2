package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple text table builder with right-aligned numeric cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i := 0; i < len(t.Headers); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// MeanStd formats "mean (std)" the way the paper's tables do.
func MeanStd(mean, std float64) string {
	return fmt.Sprintf("%.1f (%.1f)", mean, std)
}

// MeanStd2 formats with two decimals, for sub-unit quantities.
func MeanStd2(mean, std float64) string {
	return fmt.Sprintf("%.2f (%.2f)", mean, std)
}

// MeanCI formats "mean ± ci" with the 95% confidence half-width, the form
// the telemetry quantile tables report campaign means in.
func MeanCI(mean, ci float64) string {
	return fmt.Sprintf("%.2f ± %.2f", mean, ci)
}

// HeatCell renders one fairness-ratio cell with a temperature glyph, the
// text analogue of Figure 3's colour scale: '#' hot (game dominant) through
// '.' neutral to '~' cool (TCP dominant). NaN marks a missing cell and
// renders as "-", like a missing table cell.
func HeatCell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	glyph := "."
	switch {
	case v >= 0.35:
		glyph = "##"
	case v >= 0.15:
		glyph = "#"
	case v <= -0.35:
		glyph = "~~"
	case v <= -0.15:
		glyph = "~"
	}
	return fmt.Sprintf("%+.2f%-2s", v, glyph)
}

// Heatmap renders a Figure-3-style grid: rows are capacities, columns are
// queue multiples.
type Heatmap struct {
	Title string
	Rows  []string // row labels (capacities)
	Cols  []string // column labels (queue sizes)
	Cells [][]float64
}

// String renders the heatmap.
func (h *Heatmap) String() string {
	var b strings.Builder
	if h.Title != "" {
		b.WriteString(h.Title + "\n")
	}
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range h.Cols {
		fmt.Fprintf(&b, "  %-9s", c)
	}
	b.WriteString("\n")
	for i, r := range h.Rows {
		fmt.Fprintf(&b, "%-10s", r)
		for j := range h.Cols {
			v := 0.0
			if i < len(h.Cells) && j < len(h.Cells[i]) {
				v = h.Cells[i][j]
			}
			fmt.Fprintf(&b, "  %-9s", HeatCell(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders named columns of equal length as comma-separated values with
// a header row. Short columns render as empty cells.
func CSV(headers []string, cols [][]float64) string {
	var b strings.Builder
	b.WriteString(strings.Join(headers, ","))
	b.WriteString("\n")
	n := 0
	for _, c := range cols {
		if len(c) > n {
			n = len(c)
		}
	}
	for i := 0; i < n; i++ {
		for j, c := range cols {
			if j > 0 {
				b.WriteString(",")
			}
			if i < len(c) {
				fmt.Fprintf(&b, "%g", c[i])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
