package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tab := NewTable("name", "value", "note")
	tab.AddRow("alpha", 1.5, "x")
	tab.AddRow("b", 0.25, "longer note")
	var sb strings.Builder
	if err := tab.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4 (header, rule, 2 rows)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("rule = %q", lines[1])
	}
	// Columns align: "value" column starts at the same offset.
	if strings.Index(lines[2], "1.5000") != strings.Index(lines[3], "0.2500") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("x,with,commas", 2)
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nx;with;commas,2\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestTableTypedCells(t *testing.T) {
	tab := NewTable("alg", "pct", "thr")
	tab.AddRow("a", 0, 0.5)
	tab.AddRow("a", 10, 0.25)
	tab.AddRow("b", 0, 0.75)
	if got := tab.Floats("thr", "alg", "a"); len(got) != 2 || got[0] != 0.5 || got[1] != 0.25 {
		t.Errorf("Floats(thr, alg=a) = %v", got)
	}
	if got := tab.Floats("pct"); len(got) != 3 || got[1] != 10 {
		t.Errorf("int column read as %v", got)
	}
	if got := tab.Float("thr", "alg", "b", "pct", 0); got != 0.75 {
		t.Errorf("Float(thr, alg=b, pct=0) = %v", got)
	}
	if got := tab.Float("thr", "alg", "c"); !math.IsNaN(got) {
		t.Errorf("no-match Float = %v, want NaN", got)
	}
	c := tab.LineChart("title", "pct", "alg", "pct", "thr")
	if len(c.Series) != 2 || c.Series[0].Name != "a" || c.Series[1].Name != "b" ||
		len(c.Series[0].X) != 2 || c.Series[0].X[1] != 10 || c.Series[1].Y[0] != 0.75 {
		t.Errorf("LineChart series = %+v", c.Series)
	}
	// Cells format only when written.
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "alg,pct,thr\na,0,0.5000\na,10,0.2500\nb,0,0.7500\n"; sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1.23456: "1.2346",
		0:       "0.0000",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if FormatFloat(math.NaN()) != "-" {
		t.Error("NaN not dashed")
	}
	if got := FormatFloat(0.0000123); !strings.Contains(got, "e-") {
		t.Errorf("tiny value not scientific: %q", got)
	}
}

func TestLineChartRendersSeries(t *testing.T) {
	c := &LineChart{Title: "test chart", XLabel: "load", Width: 40, Height: 10}
	c.Add(Series{Name: "rising", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}})
	c.Add(Series{Name: "flat", X: []float64{0, 1, 2, 3}, Y: []float64{1, 1, 1, 1}})
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"test chart", "A = rising", "B = flat", "load", "A", "B"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestLineChartHandlesDegenerateData(t *testing.T) {
	c := &LineChart{Width: 20, Height: 5}
	c.Add(Series{Name: "point", X: []float64{1}, Y: []float64{2}})
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		t.Fatal(err)
	}
	c2 := &LineChart{Width: 20, Height: 5}
	c2.Add(Series{Name: "nan", X: []float64{math.NaN()}, Y: []float64{math.NaN()}})
	sb.Reset()
	if err := c2.Write(&sb); err != nil {
		t.Fatal(err)
	}
	empty := &LineChart{}
	sb.Reset()
	if err := empty.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestBarChart(t *testing.T) {
	b := &BarChart{Title: "bars", Width: 20}
	b.Add("big", 10)
	b.Add("half", 5)
	b.Add("zero", 0)
	var sb strings.Builder
	if err := b.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	big := strings.Count(lines[1], "#")
	half := strings.Count(lines[2], "#")
	zero := strings.Count(lines[3], "#")
	if big != 20 || half != 10 || zero != 0 {
		t.Errorf("bar widths = %d, %d, %d; want 20, 10, 0", big, half, zero)
	}
}

func TestBarChartAllZero(t *testing.T) {
	b := &BarChart{}
	b.Add("a", 0)
	var sb strings.Builder
	if err := b.Write(&sb); err != nil {
		t.Fatal(err)
	}
}
