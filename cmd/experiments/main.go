// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig10 -scale quick
//	experiments -run all -scale full -csv
//	experiments -run all -scale quick -jobs 8
//	experiments -run all -scale full -obs-addr localhost:6060 -obs-trace ring:4096
//
// Experiments fan out over a bounded worker pool (internal/sched): each
// one runs its (workload × policy) grid in parallel, and with -run all
// the experiments themselves also run concurrently, their tables streamed
// to stdout in paper order as they complete. Output is byte-identical at
// every -jobs setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/viz"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments")
		run   = flag.String("run", "", "experiment id to run, or 'all'")
		scale = flag.String("scale", "quick", "scale: quick, full, or bench")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		chart = flag.Bool("chart", false, "render ASCII charts alongside the tables")
		jobs  = flag.Int("jobs", 0, "worker-pool size (0 = GOMAXPROCS); output is identical at any value")
		keep  = flag.Bool("keep-going", false, "on a failed grid cell or experiment, annotate and continue instead of aborting")
		limit = flag.Duration("timeout", 0, "per-experiment wall-clock limit (0 = none); exceeded experiments fail")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")

		traceSpec = flag.String("obs-trace", "", "cache-event trace sink: jsonl:PATH, ring:N, or discard (optional @N sampling)")
		obsAddr   = flag.String("obs-addr", "", "serve live metrics/expvar/pprof on this address while the suite runs")
	)
	flag.Parse()
	sched.SetWorkers(*jobs)
	experiments.SetKeepGoing(*keep)

	// Observability is opt-in and does not perturb results: tables are
	// byte-identical with tracing + metrics on or off (pinned by
	// TestObservabilityDeterminism).
	stopObs, err := obs.StartCLI(*traceSpec, *obsAddr, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopObs()

	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	defer stopCPU()

	if *list || *run == "" {
		fmt.Println("Available experiments:")
		for _, e := range experiments.List() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Desc)
		}
		if *run == "" {
			fmt.Println("\nRun with: experiments -run <id>|all [-scale quick|full|bench] [-jobs N] [-csv]")
		}
		return
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale()
	case "full":
		s = experiments.FullScale()
	case "bench":
		s = experiments.BenchScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (quick|full|bench)\n", *scale)
		os.Exit(2)
	}

	ids := []string{*run}
	if *run == "all" {
		ids = ids[:0]
		for _, e := range experiments.List() {
			ids = append(ids, e.ID)
		}
	}

	// Run every experiment concurrently on the shared pool and stream the
	// tables out in paper order as they become available. Each experiment's
	// grid fans out on the same pool, and the singleflight memo caches
	// coalesce cells shared across experiments (fig10/fig12/tab4 all reuse
	// the same timing runs), so -run all does strictly less work than
	// running the ids one by one.
	type timed struct {
		tbl     *stats.Table
		elapsed time.Duration
	}
	suiteStart := time.Now()
	runOne := func(i int) (timed, error) {
		start := time.Now()
		var tbl *stats.Table
		job := func() error {
			t, err := experiments.Run(ids[i], s)
			tbl = t
			return err
		}
		if *limit > 0 {
			// An exceeded experiment fails (its abandoned goroutine keeps
			// running; Go cannot kill it) so the rest of the suite can
			// finish under -keep-going.
			job = sched.Deadline(*limit)(job)
		}
		if err := job(); err != nil {
			return timed{}, fmt.Errorf("experiment %s: %w", ids[i], err)
		}
		return timed{tbl, time.Since(start)}, nil
	}
	emit := func(i int, r timed) error {
		id := ids[i]
		switch {
		case *csv:
			fmt.Printf("# %s\n%s\n", id, r.tbl.CSV())
		case *chart && id == "fig3":
			fmt.Println(viz.HeatMap(r.tbl))
		case *chart && len(r.tbl.Header) > 2:
			fmt.Println(r.tbl.String())
			fmt.Println(viz.BarChart(r.tbl, len(r.tbl.Header)-1))
		case *chart:
			fmt.Println(viz.BarChart(r.tbl, 1))
		default:
			fmt.Println(r.tbl.String())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v at scale %s]\n\n", id, r.elapsed.Round(time.Millisecond), s.Name)
		return nil
	}
	var failedIDs []string
	if *keep {
		// Keep-going: every experiment runs whatever happens to its
		// neighbours (a panic in one becomes that experiment's error);
		// failures are reported in order and the suite exits non-zero at
		// the end instead of aborting at the first failure.
		err = sched.StreamAll(len(ids), runOne, func(i int, r timed, jobErr error) error {
			if jobErr != nil {
				failedIDs = append(failedIDs, ids[i])
				fmt.Fprintf(os.Stderr, "[%s FAILED: %v]\n\n", ids[i], jobErr)
				return nil
			}
			return emit(i, r)
		})
	} else {
		err = sched.Stream(len(ids), runOne, emit)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(ids) > 1 {
		fmt.Fprintf(os.Stderr, "[suite: %d experiments in %v, jobs=%d]\n",
			len(ids), time.Since(suiteStart).Round(time.Millisecond), sched.Workers())
	}
	if len(failedIDs) > 0 {
		fmt.Fprintf(os.Stderr, "[%d of %d experiments failed: %v]\n", len(failedIDs), len(ids), failedIDs)
		os.Exit(1)
	}
}
