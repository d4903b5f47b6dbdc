// Package stats implements the performance metrics of §V-A: per-benchmark
// IPC speedup over LRU, geometric-mean aggregation (including the 4-core
// mix formula), and demand MPKI, plus small text-table helpers used by the
// experiment harness and the cmd binaries.
package stats

import (
	"encoding/csv"
	"fmt"
	"strings"

	"repro/internal/mathx"
)

// SpeedupPct converts an IPC ratio into the percentage the paper's figures
// plot: (ipc / baseIPC − 1) × 100.
func SpeedupPct(ipc, baseIPC float64) float64 {
	if baseIPC == 0 {
		return 0
	}
	return (ipc/baseIPC - 1) * 100
}

// GeoMeanSpeedupPct aggregates per-benchmark IPC ratios (ipc/ipcLRU) into
// the overall percentage of Table IV: (geomean(ratios) − 1) × 100. A
// non-positive ratio (a degenerate cell) is reported as an error rather
// than aggregated.
func GeoMeanSpeedupPct(ratios []float64) (float64, error) {
	if len(ratios) == 0 {
		return 0, nil
	}
	gm, err := mathx.GeoMean(ratios)
	if err != nil {
		return 0, err
	}
	return (gm - 1) * 100, nil
}

// MixSpeedup computes one 4-core workload mix's performance versus LRU:
// the geometric mean over cores of IPC_i / IPC_i,LRU (§V-A). Mismatched
// slice lengths are a programming error and panic; a zero baseline IPC is
// a data condition and is returned as an error.
func MixSpeedup(ipc, ipcLRU []float64) (float64, error) {
	if len(ipc) != len(ipcLRU) || len(ipc) == 0 {
		panic("stats: MixSpeedup needs matching non-empty IPC slices")
	}
	ratios := make([]float64, len(ipc))
	for i := range ipc {
		if ipcLRU[i] == 0 {
			return 0, fmt.Errorf("stats: zero baseline IPC for core %d", i)
		}
		ratios[i] = ipc[i] / ipcLRU[i]
	}
	return mathx.GeoMean(ratios)
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				// Annotation cells beyond the header (e.g. a failure note
				// appended to a row) render unpadded instead of panicking.
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC 4180 comma-separated values, quoting cells
// that contain commas, quotes, or newlines.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Header)
	for _, row := range t.Rows {
		w.Write(row)
	}
	w.Flush()
	return b.String()
}

// Pct formats a percentage with two decimals.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }
