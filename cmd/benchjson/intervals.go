package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/intervals"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The -intervals mode measures representative-interval selection against
// full-trace simulation and writes BENCH_intervals.json. For each
// workload it generates a chunked trace on disk, runs the whole policy
// zoo over the full trace, then runs the same zoo over the k-means-chosen
// representative intervals, and reports the weighted-vs-full hit rates,
// the Kendall-τ agreement of the two policy rankings, and the wall-clock
// speedup (selection cost included). Both passes fan the zoo out on
// internal/sched with the same worker count, so the ratio is apples to
// apples. The ISSUE-7 acceptance bar is speedup ≥ 10 with τ ≥ 0.9 on at
// least one multi-million-access workload.

// intervalsZoo is the policy zoo both passes rank. Two registry policies
// are excluded on methodological grounds: Belady, whose oracle indexes
// absolute trace positions and would need per-window re-derivation, and
// MRU, whose full-trace hit rate is non-stationary (it pins early garbage
// and degrades monotonically for millions of accesses), so no interval
// scheme with bounded warmup can reproduce it.
var intervalsZoo = []string{
	"lru", "random", "srrip", "brrip", "drrip",
	"ship", "ship++", "hawkeye", "eva", "pdp", "rwp",
}

var intervalsQuickZoo = []string{"lru", "random", "srrip", "ship", "hawkeye"}

type intervalsPolicyRow struct {
	Policy      string  `json:"policy"`
	FullHitPct  float64 `json:"full_hit_pct"`
	RepHitPct   float64 `json:"rep_hit_pct"`
	AbsErrorPct float64 `json:"abs_error_pct"` // |full − rep| in hit-rate points
}

type intervalsWorkload struct {
	Workload          string               `json:"workload"`
	Accesses          uint64               `json:"accesses"`
	Windows           int                  `json:"windows"`
	K                 int                  `json:"k"`
	Reps              int                  `json:"reps"`
	MeasuredPerPolicy uint64               `json:"measured_per_policy"` // accesses simulated per policy, excl. warmup
	CoveragePct       float64              `json:"coverage_pct"`        // measured / full
	FullMS            float64              `json:"full_ms"`             // zoo over the full trace
	SelectMS          float64              `json:"select_ms"`           // signatures + clustering (once)
	EvalMS            float64              `json:"eval_ms"`             // zoo over the representatives
	IntervalsMS       float64              `json:"intervals_ms"`        // select + eval
	Speedup           float64              `json:"speedup"`             // full / intervals
	KendallTau        float64              `json:"kendall_tau"`         // ranking agreement across the zoo
	MaxAbsErrorPct    float64              `json:"max_abs_error_pct"`
	Policies          []intervalsPolicyRow `json:"policies"`
}

type intervalsReport struct {
	Meta       obs.BuildInfo       `json:"meta"`
	Quick      bool                `json:"quick"`
	Jobs       int                 `json:"jobs"`
	Window     int                 `json:"window"`
	K          int                 `json:"k"`
	Warmup     uint64              `json:"warmup"`
	Zoo        []string            `json:"zoo"`
	Workloads  []intervalsWorkload `json:"workloads"`
	MinTau     float64             `json:"min_tau"`
	MaxSpeedup float64             `json:"max_speedup"`
}

func runIntervals(quick bool, jobs int, path string) error {
	// Geometry note: the cache must be small enough that a warmup of
	// `warmup` accesses reaches steady state inside each representative
	// (a mostly-cold cache makes every policy behave identically — no
	// evictions, no ranking). 512×16 = 512KB keeps eviction pressure high
	// on multi-million-access traces while warmup stays a small fraction
	// of the trace.
	n := 24_000_000
	window, k, warmup := 32_768, 8, uint64(131_072)
	zoo := intervalsZoo
	names := []string{"429.mcf", "450.soplex", "483.xalancbmk"}
	ccfg := cache.Config{Sets: 512, Ways: 16, LineSize: 64}
	if quick {
		n, window, k, warmup = 300_000, 8192, 4, 8192
		zoo = intervalsQuickZoo
		names = names[:1]
		ccfg = cache.Config{Sets: 128, Ways: 16, LineSize: 64}
	}
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	sched.SetWorkers(jobs)

	dir, err := os.MkdirTemp("", "benchjson-intervals-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := intervalsReport{
		Meta: obs.CollectBuildInfo(), Quick: quick, Jobs: jobs,
		Window: window, K: k, Warmup: warmup, Zoo: zoo,
	}
	for _, name := range names {
		w, err := intervalsOneWorkload(name, n, window, k, warmup, zoo, ccfg, dir)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.Workloads = append(rep.Workloads, w)
		if w.KendallTau < rep.MinTau || len(rep.Workloads) == 1 {
			rep.MinTau = w.KendallTau
		}
		if w.Speedup > rep.MaxSpeedup {
			rep.MaxSpeedup = w.Speedup
		}
		fmt.Fprintf(os.Stderr, "%-16s full %8.0fms   intervals %7.0fms (%5.1f%% of trace)   %5.2fx   τ=%.3f   maxΔ=%.2fpp\n",
			name, w.FullMS, w.IntervalsMS, w.CoveragePct, w.Speedup, w.KendallTau, w.MaxAbsErrorPct)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (max speedup %.2fx, min τ %.3f)\n", path, rep.MaxSpeedup, rep.MinTau)
	return nil
}

func intervalsOneWorkload(name string, n, window, k int, warmup uint64, zoo []string, ccfg cache.Config, dir string) (intervalsWorkload, error) {
	var w intervalsWorkload
	spec, err := workloads.ByName(name)
	if err != nil {
		return w, err
	}
	path := filepath.Join(dir, name+".llct")
	wrote, err := workloads.WriteChunkedLLCAccesses(spec, n, path, trace.ChunkedWriterOptions{})
	if err != nil {
		return w, err
	}
	cf, err := trace.OpenChunked(path)
	if err != nil {
		return w, err
	}
	defer cf.Close()
	w = intervalsWorkload{Workload: name, Accesses: wrote, K: k}

	// Full-trace pass: the whole zoo, fanned out.
	start := time.Now()
	fullStats, err := sched.Map(len(zoo), func(i int) (cachesim.Stats, error) {
		return cachesim.RunFramesPolicy(ccfg, policy.MustNew(zoo[i]), cf)
	})
	if err != nil {
		return w, err
	}
	w.FullMS = msSince(start)

	// Interval pass: select once, then the zoo over the representatives.
	start = time.Now()
	sel, err := intervals.Select(cf, intervals.Config{
		Window: window, K: k, Seed: 1, LineSize: ccfg.LineSize, Sets: ccfg.Sets,
	})
	if err != nil {
		return w, err
	}
	w.SelectMS = msSince(start)
	w.Windows = sel.NumWindows
	w.Reps = len(sel.Reps)
	w.MeasuredPerPolicy = sel.SimulatedAccesses()
	w.CoveragePct = 100 * float64(w.MeasuredPerPolicy) / float64(wrote)

	start = time.Now()
	repRes, err := sched.Map(len(zoo), func(i int) (intervals.RepResult, error) {
		return intervals.EvaluateRepresentatives(ccfg, func() policy.Policy { return policy.MustNew(zoo[i]) }, cf, sel, warmup)
	})
	if err != nil {
		return w, err
	}
	w.EvalMS = msSince(start)
	w.IntervalsMS = w.SelectMS + w.EvalMS
	if w.IntervalsMS > 0 {
		w.Speedup = w.FullMS / w.IntervalsMS
	}

	full := make([]float64, len(zoo))
	repr := make([]float64, len(zoo))
	for i, pname := range zoo {
		full[i] = fullStats[i].HitRate()
		repr[i] = repRes[i].HitRate
		row := intervalsPolicyRow{
			Policy:      pname,
			FullHitPct:  full[i],
			RepHitPct:   repr[i],
			AbsErrorPct: abs(full[i] - repr[i]),
		}
		if row.AbsErrorPct > w.MaxAbsErrorPct {
			w.MaxAbsErrorPct = row.AbsErrorPct
		}
		w.Policies = append(w.Policies, row)
	}
	w.KendallTau = stats.KendallTau(full, repr)
	return w, nil
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
