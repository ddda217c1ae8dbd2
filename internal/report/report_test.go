package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1: Bitrates", "System", "Bitrate (Mb/s)")
	tb.AddRow("Stadia", MeanStd(27.5, 2.3))
	tb.AddRow("GeForce", MeanStd(24.5, 1.8))
	tb.AddRow("Luna", MeanStd(23.7, 0.9))
	out := tb.String()
	for _, want := range []string{"Table 1", "System", "Stadia", "27.5 (2.3)", "Luna", "23.7 (0.9)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title + header + rule + 3 rows
		t.Errorf("table has %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("x")
	out := tb.String()
	if !strings.Contains(out, "x") {
		t.Error("short row dropped")
	}
}

func TestMeanStdFormats(t *testing.T) {
	if got := MeanStd(111.6, 12.4); got != "111.6 (12.4)" {
		t.Errorf("MeanStd = %q", got)
	}
	if got := MeanStd2(0.25, 0.01); got != "0.25 (0.01)" {
		t.Errorf("MeanStd2 = %q", got)
	}
}

func TestHeatCellGlyphs(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0.62, "##"},
		{0.2, "#"},
		{0.0, "."},
		{-0.2, "~"},
		{-0.62, "~~"},
	}
	for _, c := range cases {
		got := HeatCell(c.v)
		if !strings.Contains(got, c.want) {
			t.Errorf("HeatCell(%v) = %q, want glyph %q", c.v, got, c.want)
		}
	}
	if got := HeatCell(math.NaN()); got != "-" {
		t.Errorf("HeatCell(NaN) = %q, want \"-\"", got)
	}
}

func TestHeatmapRendering(t *testing.T) {
	h := &Heatmap{
		Title: "stadia vs cubic",
		Rows:  []string{"35 Mb/s", "25 Mb/s", "15 Mb/s"},
		Cols:  []string{"0.5x", "2x", "7x"},
		Cells: [][]float64{{0.5, 0.3, -0.2}, {0.4, 0.2, -0.3}, {0.2, 0.1, -0.25}},
	}
	out := h.String()
	for _, want := range []string{"stadia vs cubic", "35 Mb/s", "0.5x", "+0.50", "-0.30"} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap missing %q:\n%s", want, out)
		}
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]string{"t", "a", "b"}, [][]float64{{0, 0.5}, {1, 2}, {3}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "t,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,3" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "0.5,2," {
		t.Errorf("row 2 = %q", lines[2])
	}
}
