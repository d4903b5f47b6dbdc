package experiments

import (
	"strings"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func init() {
	register("fig10", "Figure 10: IPC speedup over LRU, SPEC CPU 2006, single-core", runFig10)
	register("fig11", "Figure 11: IPC speedup over LRU, CloudSuite, single-core", runFig11)
	register("fig12", "Figure 12: demand MPKI per policy (benchmarks with LRU MPKI > 3)", runFig12)
	register("kpcp", "§V-B: RLR vs KPC-R with KPC-P as the L2 prefetcher", runKPCP)
}

// ipcPolicies is the Figure 10/11 series order.
var ipcPolicies = []struct {
	Label string
	Name  string
}{
	{"DRRIP", "drrip"},
	{"KPC-R", "kpc-r"},
	{"SHiP", "ship"},
	{"RLR", "rlr"},
	{"RLR(UNOPT)", "rlr-unopt"},
	{"HAWKEYE", "hawkeye"},
	{"SHiP++", "ship++"},
}

// ipcGrid fans the (benchmark × policy) timing grid out over the sched
// pool and returns results indexed [bench][policy column], where column 0
// is the LRU baseline and column j+1 is ipcPolicies[j]. Every cell is an
// independent deterministic simulation; runIPC's singleflight memo means
// the LRU baseline each row shares with fig12/tab4 is computed exactly
// once no matter how many cells ask for it concurrently.
//
// In keep-going mode the returned error is nil and the second grid carries
// each cell's error (nil for good cells): a failed cell annotates its row
// while every other cell's result is identical to a fault-free run.
// Otherwise the second grid is nil and a failed cell fails the call with
// the lowest-index error a serial run would have hit.
func ipcGrid(names []string, s Scale) ([][]uarch.Result, [][]error, error) {
	cols := len(ipcPolicies) + 1
	cell := func(k int) (uarch.Result, error) {
		bench := names[k/cols]
		polName := "lru"
		if j := k % cols; j > 0 {
			polName = ipcPolicies[j-1].Name
		}
		return runIPC(bench, policy.MustNew(polName), s)
	}
	var flat []uarch.Result
	var flatErrs []error
	if keepGoing.Load() {
		flat, flatErrs = sched.MapAll(len(names)*cols, cell)
	} else {
		var err error
		flat, err = sched.Map(len(names)*cols, cell)
		if err != nil {
			return nil, nil, err
		}
	}
	grid := make([][]uarch.Result, len(names))
	var errGrid [][]error
	if flatErrs != nil {
		errGrid = make([][]error, len(names))
	}
	for i := range grid {
		grid[i] = flat[i*cols : (i+1)*cols]
		if flatErrs != nil {
			errGrid[i] = flatErrs[i*cols : (i+1)*cols]
		}
	}
	return grid, errGrid, nil
}

// cellErr returns errs[i][j] if the error grid exists, else nil.
func cellErr(errs [][]error, i, j int) error {
	if errs == nil {
		return nil
	}
	return errs[i][j]
}

// shortErr compresses an error to its first line, truncated, for use as a
// table annotation cell.
func shortErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 80 {
		s = s[:77] + "..."
	}
	return s
}

// overallCell formats a geomean-aggregate percentage cell. A degenerate
// set of ratios (a non-positive entry, e.g. from a failed cell under
// -keep-going) renders as "n/a" instead of failing the whole table.
func overallCell(ratios []float64) string {
	pct, err := stats.GeoMeanSpeedupPct(ratios)
	if err != nil {
		return "n/a"
	}
	return stats.Pct(pct)
}

// speedupTable runs the single-core IPC comparison over the given
// workloads, returning the per-benchmark speedup rows plus an Overall
// geomean row, and the raw ratios for Table IV. Cells execute in parallel;
// rows are assembled in workload order so the table is byte-identical to
// a serial run.
func speedupTable(title string, names []string, s Scale) (*stats.Table, map[string][]float64, error) {
	tbl := &stats.Table{Title: title, Header: []string{"benchmark"}}
	for _, p := range ipcPolicies {
		tbl.Header = append(tbl.Header, p.Label)
	}
	grid, gridErrs, err := ipcGrid(names, s)
	if err != nil {
		return nil, nil, err
	}
	ratios := make(map[string][]float64, len(ipcPolicies))
	for i, bench := range names {
		// The LRU baseline is grid column 0: hoisted once per benchmark
		// through the runIPC memo, which fig12 and tab4 depend on hitting
		// (they reuse the same keys rather than re-running LRU).
		base := grid[i][0]
		row := []string{bench}
		if baseErr := cellErr(gridErrs, i, 0); baseErr != nil {
			// No baseline → no speedup is computable for this benchmark.
			for range ipcPolicies {
				row = append(row, "n/a")
			}
			row = append(row, "FAILED lru: "+shortErr(baseErr))
			tbl.Rows = append(tbl.Rows, row)
			continue
		}
		var failed []string
		for j, p := range ipcPolicies {
			if err := cellErr(gridErrs, i, j+1); err != nil {
				row = append(row, "n/a")
				failed = append(failed, "FAILED "+p.Name+": "+shortErr(err))
				continue
			}
			res := grid[i][j+1]
			ratios[p.Name] = append(ratios[p.Name], res.IPC()/base.IPC())
			row = append(row, stats.Pct(stats.SpeedupPct(res.IPC(), base.IPC())))
		}
		row = append(row, failed...)
		tbl.Rows = append(tbl.Rows, row)
	}
	overall := []string{"Overall"}
	for _, p := range ipcPolicies {
		overall = append(overall, overallCell(ratios[p.Name]))
	}
	tbl.Rows = append(tbl.Rows, overall)
	return tbl, ratios, nil
}

func runFig10(s Scale) (*stats.Table, error) {
	tbl, _, err := speedupTable(
		"Figure 10: IPC speedup over LRU (%), SPEC CPU 2006, single-core",
		workloads.SPECNames(), s)
	return tbl, err
}

func runFig11(s Scale) (*stats.Table, error) {
	tbl, _, err := speedupTable(
		"Figure 11: IPC speedup over LRU (%), CloudSuite, single-core",
		workloads.CloudNames(), s)
	return tbl, err
}

func runFig12(s Scale) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 12: demand MPKI (benchmarks with LRU MPKI > 3)",
		Header: []string{"benchmark", "LRU"},
	}
	for _, p := range ipcPolicies {
		tbl.Header = append(tbl.Header, p.Label)
	}
	// Phase 1: LRU baselines for every benchmark, in parallel. These hit
	// the same runIPC memo keys as fig10/tab4, so when those experiments
	// already ran (or run concurrently) no LRU cell is ever re-simulated —
	// the baseline is hoisted through the memo instead of re-run per table.
	names := workloads.SPECNames()
	baseCell := func(i int) (uarch.Result, error) {
		return runIPC(names[i], policy.MustNew("lru"), s)
	}
	var bases []uarch.Result
	var baseErrs []error
	if keepGoing.Load() {
		bases, baseErrs = sched.MapAll(len(names), baseCell)
	} else {
		var err error
		bases, err = sched.Map(len(names), baseCell)
		if err != nil {
			return nil, err
		}
	}
	// Phase 2: the policy grid, restricted to the memory-intensive subset
	// the paper plots (running policies on filtered-out benchmarks would
	// be wasted work a serial run never did). A benchmark whose baseline
	// failed under keep-going is annotated and dropped from the grid.
	var kept []string
	baseFailed := make(map[string]error)
	baseByName := make(map[string]uarch.Result, len(names))
	for i, bench := range names {
		if baseErrs != nil && baseErrs[i] != nil {
			baseFailed[bench] = baseErrs[i]
			continue
		}
		if bases[i].DemandMPKI > 3 {
			kept = append(kept, bench)
			baseByName[bench] = bases[i]
		}
	}
	grid, gridErrs, err := ipcGrid(kept, s)
	if err != nil {
		return nil, err
	}
	// Emit rows in benchmark order, interleaving baseline-failure
	// annotations where the benchmark's row would have gone.
	ki := 0
	for _, bench := range names {
		if err, ok := baseFailed[bench]; ok {
			tbl.AddRow(bench, "n/a", "FAILED lru: "+shortErr(err))
			continue
		}
		if ki >= len(kept) || kept[ki] != bench {
			continue // filtered out by the MPKI > 3 cut
		}
		i := ki
		ki++
		row := []string{bench, stats.F2(baseByName[bench].DemandMPKI)}
		var failed []string
		for j, p := range ipcPolicies {
			if err := cellErr(gridErrs, i, j+1); err != nil {
				row = append(row, "n/a")
				failed = append(failed, "FAILED "+p.Name+": "+shortErr(err))
				continue
			}
			row = append(row, stats.F2(grid[i][j+1].DemandMPKI))
		}
		row = append(row, failed...)
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

// kpcpBenches is the memory-intensive subset used for the KPC-P study.
var kpcpBenches = []string{
	"429.mcf", "470.lbm", "462.libquantum", "459.GemsFDTD",
	"437.leslie3d", "450.soplex", "471.omnetpp", "483.xalancbmk",
}

func runKPCP(s Scale) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "§V-B: IPC speedup over LRU (%) with KPC-P as the L2 prefetcher",
		Header: []string{"benchmark", "KPC-R", "RLR"},
	}
	cfg := s.sysConfig(1)
	cfg.L2Prefetcher = "kpc-p"
	run := func(bench string, pol policy.Policy) (float64, error) {
		spec, err := workloads.ByName(bench)
		if err != nil {
			return 0, err
		}
		sys := uarch.NewSystem(cfg, pol)
		wireKPC(sys, pol)
		return sys.RunSingle(workloads.New(spec), s.Warmup, s.Measure).IPC(), nil
	}
	// The KPC-P config differs from the plain runIPC system (L2 prefetcher
	// swapped), so these cells are not memo-shared — just fanned out flat
	// over the (benchmark × {lru, kpc-r, rlr}) grid.
	polNames := []string{"lru", "kpc-r", "rlr"}
	flat, err := sched.Map(len(kpcpBenches)*len(polNames), func(k int) (float64, error) {
		return run(kpcpBenches[k/len(polNames)], policy.MustNew(polNames[k%len(polNames)]))
	})
	if err != nil {
		return nil, err
	}
	var krRatios, rlrRatios []float64
	for i, bench := range kpcpBenches {
		base, kr, rr := flat[i*3], flat[i*3+1], flat[i*3+2]
		krRatios = append(krRatios, kr/base)
		rlrRatios = append(rlrRatios, rr/base)
		tbl.AddRow(bench, stats.Pct(stats.SpeedupPct(kr, base)), stats.Pct(stats.SpeedupPct(rr, base)))
	}
	tbl.AddRow("Overall", overallCell(krRatios), overallCell(rlrRatios))
	return tbl, nil
}
