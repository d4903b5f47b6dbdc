package viz

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func demoTable() *stats.Table {
	t := &stats.Table{
		Title:  "demo speedups",
		Header: []string{"benchmark", "RLR", "DRRIP"},
	}
	t.AddRow("mcf", "31.68%", "26.49%")
	t.AddRow("lbm", "-0.50%", "0.00%")
	t.AddRow("Overall", "3.90%", "3.07%")
	return t
}

func TestBarChartRendersAllRows(t *testing.T) {
	out := BarChart(demoTable(), 1)
	for _, want := range []string{"mcf", "lbm", "Overall", "31.68%", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("bar chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + 3 bars
		t.Errorf("bar chart lines = %d, want 4:\n%s", len(lines), out)
	}
}

func TestBarChartNegativeValues(t *testing.T) {
	out := BarChart(demoTable(), 1)
	// The negative row must render its bar before the axis mark.
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "lbm") {
			if !strings.Contains(ln, "█|") {
				t.Errorf("negative bar not left of axis: %q", ln)
			}
		}
	}
}

func TestBarChartBadColumn(t *testing.T) {
	if out := BarChart(demoTable(), 0); !strings.Contains(out, "out of range") {
		t.Errorf("column 0 should be rejected: %q", out)
	}
	if out := BarChart(demoTable(), 9); !strings.Contains(out, "out of range") {
		t.Errorf("column 9 should be rejected: %q", out)
	}
}

func TestBarChartNonNumeric(t *testing.T) {
	tb := &stats.Table{Title: "x", Header: []string{"a", "b"}}
	tb.AddRow("r", "not-a-number")
	if out := BarChart(tb, 1); !strings.Contains(out, "no numeric rows") {
		t.Errorf("non-numeric table should report: %q", out)
	}
}

func TestHeatMap(t *testing.T) {
	tb := &stats.Table{Title: "heat", Header: []string{"feature", "b1", "b2"}}
	tb.AddRow("preuse", "1.00", "0.75")
	tb.AddRow("offset", "0.00", "0.25")
	out := HeatMap(tb)
	if !strings.Contains(out, "█") {
		t.Errorf("heat map missing full shade:\n%s", out)
	}
	if !strings.Contains(out, "preuse") || !strings.Contains(out, "1 = b1") {
		t.Errorf("heat map missing labels/legend:\n%s", out)
	}
}

func TestParseCell(t *testing.T) {
	cases := map[string]float64{"3.25%": 3.25, " -1.5 ": -1.5, "16.75": 16.75}
	for in, want := range cases {
		got, ok := parseCell(in)
		if !ok || got != want {
			t.Errorf("parseCell(%q) = %v,%v", in, got, ok)
		}
	}
	if _, ok := parseCell("n/a"); ok {
		t.Error("parseCell accepted garbage")
	}
}
