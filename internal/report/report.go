// Package report renders experiment results as aligned text tables,
// CSV files, and terminal-friendly ASCII line/bar charts, so every
// figure of the paper can be regenerated without a plotting stack.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is an aligned-column table whose cells keep their typed
// values (float64, int, string, ...), so callers read numbers back
// from it; cells are formatted only when written.
type Table struct {
	Header []string
	Rows   [][]any
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row of cell values.
func (t *Table) AddRow(cells ...any) { t.Rows = append(t.Rows, cells) }

// col returns the index of the named column, or -1.
func (t *Table) col(name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

// Floats returns column col as float64s over the rows matching every
// (column, value) pair in where, in row order.
func (t *Table) Floats(col string, where ...any) []float64 {
	c := t.col(col)
	var out []float64
rows:
	for _, row := range t.Rows {
		for i := 0; i+1 < len(where); i += 2 {
			if row[t.col(where[i].(string))] != where[i+1] {
				continue rows
			}
		}
		out = append(out, toFloat(row[c]))
	}
	return out
}

// Float is the first of Floats, or NaN when no row matches.
func (t *Table) Float(col string, where ...any) float64 {
	if v := t.Floats(col, where...); len(v) > 0 {
		return v[0]
	}
	return math.NaN()
}

// LineChart draws column y against column x, one series per distinct
// value of column key in first-seen order.
func (t *Table) LineChart(title, xLabel, key, x, y string) *LineChart {
	c := &LineChart{Title: title, XLabel: xLabel}
	seen := map[any]bool{}
	for _, row := range t.Rows {
		if k := row[t.col(key)]; !seen[k] {
			seen[k] = true
			c.Add(Series{Name: fmt.Sprint(k), X: t.Floats(x, key, k), Y: t.Floats(y, key, k)})
		}
	}
	return c
}

func toFloat(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int:
		return float64(n)
	case int64:
		return float64(n)
	}
	return math.NaN()
}

// formatCell renders one cell: floats through FormatFloat, anything
// else with %v.
func formatCell(v any) string {
	if f, ok := v.(float64); ok {
		return FormatFloat(f)
	}
	return fmt.Sprintf("%v", v)
}

// FormatFloat renders a float compactly (4 significant decimals, NaN
// as "-").
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if v != 0 && math.Abs(v) < 0.001 {
		return fmt.Sprintf("%.2e", v)
	}
	return fmt.Sprintf("%.4f", v)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	rows := t.formatted()
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) formatted() [][]string {
	rows := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = make([]string, len(row))
		for j, c := range row {
			rows[i][j] = formatCell(c)
		}
	}
	return rows
}

// WriteCSV renders the table as CSV (no quoting needed for the
// numeric/identifier content we emit; commas in cells are replaced).
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	row := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := row(t.Header); err != nil {
		return err
	}
	for _, r := range t.formatted() {
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}

// Series is one curve of a line chart.
type Series struct {
	Name string
	X, Y []float64
}

// LineChart renders multiple series on a text grid. Each series is
// drawn with its own letter; overlapping points show the later series.
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int
	Height int
	Series []Series
	// YMin/YMax fix the y range; when both zero the range is derived
	// from the data.
	YMin, YMax float64
}

// Add appends a series.
func (c *LineChart) Add(s Series) { c.Series = append(c.Series, s) }

// Write renders the chart.
func (c *LineChart) Write(w io.Writer) error {
	width, height := c.Width, c.Height
	if width == 0 {
		width = 72
	}
	if height == 0 {
		height = 20
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			xmin, xmax = math.Min(xmin, s.X[i]), math.Max(xmax, s.X[i])
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
		}
	}
	if c.YMin != 0 || c.YMax != 0 {
		ymin, ymax = c.YMin, c.YMax
	}
	if math.IsInf(xmin, 1) || xmax == xmin {
		xmax, xmin = xmin+1, xmin-1
	}
	if ymax == ymin {
		ymax, ymin = ymin+1, ymin-1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	mark := func(x, y float64, ch byte) {
		if math.IsNaN(x) || math.IsNaN(y) {
			return
		}
		col := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
		row := int(math.Round((y - ymin) / (ymax - ymin) * float64(height-1)))
		if col < 0 || col >= width || row < 0 || row >= height {
			return
		}
		grid[height-1-row][col] = ch
	}
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for si, s := range c.Series {
		ch := letters[si%len(letters)]
		for i := range s.X {
			mark(s.X[i], s.Y[i], ch)
		}
	}
	if c.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", c.Title); err != nil {
			return err
		}
	}
	for i, row := range grid {
		label := "        "
		if i == 0 {
			label = fmt.Sprintf("%8.3g", ymax)
		} else if i == height-1 {
			label = fmt.Sprintf("%8.3g", ymin)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, row); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %-10.4g%s%10.4g   (%s)\n", strings.Repeat(" ", 8), xmin,
		strings.Repeat(" ", maxInt(0, width-22)), xmax, c.XLabel); err != nil {
		return err
	}
	for si, s := range c.Series {
		if _, err := fmt.Fprintf(w, "  %c = %s\n", letters[si%len(letters)], s.Name); err != nil {
			return err
		}
	}
	return nil
}

// Bar is one bar of a bar chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders labeled horizontal bars scaled to the maximum.
type BarChart struct {
	Title string
	Unit  string
	Width int
	Bars  []Bar
}

// Add appends a bar.
func (b *BarChart) Add(label string, value float64) {
	b.Bars = append(b.Bars, Bar{Label: label, Value: value})
}

// Write renders the chart.
func (b *BarChart) Write(w io.Writer) error {
	width := b.Width
	if width == 0 {
		width = 50
	}
	if b.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", b.Title); err != nil {
			return err
		}
	}
	maxV, maxL := 0.0, 0
	for _, bar := range b.Bars {
		if bar.Value > maxV {
			maxV = bar.Value
		}
		if len(bar.Label) > maxL {
			maxL = len(bar.Label)
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	for _, bar := range b.Bars {
		n := int(math.Round(bar.Value / maxV * float64(width)))
		if n < 0 {
			n = 0
		}
		if _, err := fmt.Fprintf(w, "  %-*s |%s %s%s\n", maxL, bar.Label,
			strings.Repeat("#", n), FormatFloat(bar.Value), b.Unit); err != nil {
			return err
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
