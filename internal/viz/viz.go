// Package viz renders the experiment tables as ASCII charts — a terminal
// stand-in for the paper's bar charts (Figures 1 and 10–13) and heat map
// (Figure 3).
package viz

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// maxBarWidth is the widest bar drawn, in characters.
const maxBarWidth = 40

// parseCell extracts a float from a table cell ("3.25%", "16.75").
func parseCell(s string) (float64, bool) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// BarChart renders one numeric column of a table as a horizontal bar
// chart: one bar per row, labelled with the first column. Non-numeric
// rows are skipped. col is the column index to plot.
func BarChart(t *stats.Table, col int) string {
	if col <= 0 || col >= len(t.Header) {
		return fmt.Sprintf("viz: column %d out of range\n", col)
	}
	type bar struct {
		label string
		raw   string
		v     float64
	}
	var bars []bar
	lo, hi := 0.0, 0.0
	for _, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		v, ok := parseCell(row[col])
		if !ok {
			continue
		}
		bars = append(bars, bar{label: row[0], raw: strings.TrimSpace(row[col]), v: v})
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(bars) == 0 {
		return "viz: no numeric rows\n"
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	labelW := 0
	for _, b := range bars {
		if len(b.label) > labelW {
			labelW = len(b.label)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.Title, t.Header[col])
	zero := int(math.Round(-lo / span * maxBarWidth))
	for _, b := range bars {
		n := int(math.Round(math.Abs(b.v) / span * maxBarWidth))
		fmt.Fprintf(&sb, "%-*s ", labelW, b.label)
		if b.v >= 0 {
			sb.WriteString(strings.Repeat(" ", zero))
			sb.WriteString("|")
			sb.WriteString(strings.Repeat("█", n))
		} else {
			pad := zero - n
			if pad < 0 {
				pad = 0
			}
			sb.WriteString(strings.Repeat(" ", pad))
			sb.WriteString(strings.Repeat("█", n))
			sb.WriteString("|")
		}
		fmt.Fprintf(&sb, " %s\n", b.raw)
	}
	return sb.String()
}

// HeatMap renders a numeric matrix table with shade characters per cell —
// the Figure 3 visual. Values are expected in [0, 1].
func HeatMap(t *stats.Table) string {
	shades := []rune(" ░▒▓█")
	labelW := 0
	for _, row := range t.Rows {
		if len(row[0]) > labelW {
			labelW = len(row[0])
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	fmt.Fprintf(&sb, "%-*s ", labelW, "")
	for i := range t.Header[1:] {
		fmt.Fprintf(&sb, "%d", (i+1)%10)
	}
	sb.WriteString("   (columns numbered in header order)\n")
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "%-*s ", labelW, row[0])
		for _, cell := range row[1:] {
			v, ok := parseCell(cell)
			if !ok {
				sb.WriteRune('?')
				continue
			}
			idx := int(v * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			sb.WriteRune(shades[idx])
		}
		sb.WriteByte('\n')
	}
	for i, h := range t.Header[1:] {
		fmt.Fprintf(&sb, "  %d = %s\n", (i+1)%10, h)
	}
	return sb.String()
}
