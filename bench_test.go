// bench_test.go regenerates every table and figure of the paper as a Go
// benchmark, one testing.B per experiment (see DESIGN.md's experiment
// index). Each iteration executes the complete experiment at BenchScale —
// a reduced instruction/trace budget that preserves the comparisons. Run
//
//	go test -bench=. -benchmem
//
// and use cmd/experiments -scale full for the paper-scale numbers. Every
// table is hashed and checked against testdata/table_digests.txt, so a
// change that moves any cell fails the bench smoke; after an intended
// change, rewrite the recorded digests with
//
//	go test -run '^$' -bench . -benchtime 1x -update .
//
// and name the changed experiments in the commit. The BenchmarkCold* pairs at the bottom time cold (memo-cleared) runs at
// jobs=1 versus jobs=NumCPU to track the parallel engine's speedup;
// cmd/benchjson writes the same comparison to BENCH_parallel.json, a local
// output of `make bench-parallel` that is not committed.
package repro

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/stats"
)

var updateDigests = flag.Bool("update", false, "rewrite "+tableDigestsFile+" with this run's table digests")

// tableDigestsFile records the SHA-256 of Table.String() per experiment at
// BenchScale. The digests hold for the GOARCH the file names: Go fuses
// multiply-add on some architectures (arm64) but never on amd64, so other
// architectures may round differently and are not compared.
const tableDigestsFile = "testdata/table_digests.txt"

// readTableDigests parses tableDigestsFile: a "goarch <arch>" line, then
// one "<experiment id> <hex sha256>" line per experiment. A missing file
// reads as empty.
func readTableDigests() (goarch string, digests map[string]string, err error) {
	digests = map[string]string{}
	f, err := os.Open(tableDigestsFile)
	if os.IsNotExist(err) {
		return "", digests, nil
	}
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return "", nil, fmt.Errorf("%s: malformed line %q", tableDigestsFile, line)
		}
		if key == "goarch" {
			goarch = val
		} else {
			digests[key] = val
		}
	}
	return goarch, digests, sc.Err()
}

// writeTableDigests rewrites tableDigestsFile for the running GOARCH,
// experiments sorted by id.
func writeTableDigests(digests map[string]string) error {
	ids := make([]string, 0, len(digests))
	for id := range digests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("# SHA-256 of stats.Table.String() per experiment at BenchScale.\n")
	b.WriteString("# Checked by the benchmarks in bench_test.go; rewrite with\n")
	b.WriteString("#   go test -run '^$' -bench . -benchtime 1x -update .\n")
	fmt.Fprintf(&b, "goarch %s\n", runtime.GOARCH)
	for _, id := range ids {
		fmt.Fprintf(&b, "%s %s\n", id, digests[id])
	}
	return os.WriteFile(tableDigestsFile, []byte(b.String()), 0o644)
}

// checkTableDigest compares tbl's digest with the recorded one for id, or
// records it under -update.
func checkTableDigest(b *testing.B, id string, tbl *stats.Table) {
	b.Helper()
	sum := sha256.Sum256([]byte(tbl.String()))
	got := hex.EncodeToString(sum[:])
	goarch, digests, err := readTableDigests()
	if err != nil {
		b.Fatal(err)
	}
	if *updateDigests {
		if goarch != "" && goarch != runtime.GOARCH {
			digests = map[string]string{}
		}
		digests[id] = got
		if err := writeTableDigests(digests); err != nil {
			b.Fatal(err)
		}
		return
	}
	if goarch != runtime.GOARCH {
		b.Logf("%s records %s digests; not comparing on %s", tableDigestsFile, goarch, runtime.GOARCH)
		return
	}
	want, ok := digests[id]
	switch {
	case !ok:
		b.Fatalf("experiment %s has no digest in %s; record it with -update", id, tableDigestsFile)
	case got != want:
		b.Fatalf("experiment %s table digest %s, recorded %s: the table changed\n%s", id, got, want, tbl)
	}
}

// runExperiment executes one experiment b.N times, reporting the table's
// row count as a sanity metric and checking the table's digest. Traces and
// trained agents are memoized across benchmarks within the process, as
// they are in the harness binary.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	s := experiments.BenchScale()
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiments.Run(id, s)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
	if tbl == nil || len(tbl.Rows) == 0 {
		b.Fatalf("experiment %s produced an empty table", id)
	}
	checkTableDigest(b, id, tbl)
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkTable1Overhead regenerates Table I (storage overhead).
func BenchmarkTable1Overhead(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkFigure1HitRate regenerates Figure 1 (LLC hit rate comparison,
// including the RL agent and the Belady oracle).
func BenchmarkFigure1HitRate(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFigure3Heatmap regenerates Figure 3 (NN weight heat map).
func BenchmarkFigure3Heatmap(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkHillClimb regenerates the §III-B hill-climbing feature search.
func BenchmarkHillClimb(b *testing.B) { runExperiment(b, "hillclimb") }

// BenchmarkFigure4Preuse regenerates Figure 4 (|preuse − reuse| buckets).
func BenchmarkFigure4Preuse(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5VictimAge regenerates Figure 5 (victim age by type).
func BenchmarkFigure5VictimAge(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6HitsAtEviction regenerates Figure 6 (victim hit counts).
func BenchmarkFigure6HitsAtEviction(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7Recency regenerates Figure 7 (victim recency histogram).
func BenchmarkFigure7Recency(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure10SpeedupSPEC regenerates Figure 10 (single-core IPC
// speedup over LRU, SPEC CPU 2006, 29 workloads × 7 policies).
func BenchmarkFigure10SpeedupSPEC(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11SpeedupCloud regenerates Figure 11 (CloudSuite).
func BenchmarkFigure11SpeedupCloud(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFigure12MPKI regenerates Figure 12 (demand MPKI).
func BenchmarkFigure12MPKI(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFigure13Multicore regenerates Figure 13 (4-core mixes).
func BenchmarkFigure13Multicore(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkTable4Summary regenerates Table IV (overall speedup summary).
func BenchmarkTable4Summary(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkAblationPriorities regenerates the §V-B hit/type ablation.
func BenchmarkAblationPriorities(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkAblationAgeBits regenerates the §IV-C age/RD design sweep.
func BenchmarkAblationAgeBits(b *testing.B) { runExperiment(b, "agesweep") }

// BenchmarkAblationAgeWeight regenerates the age-priority weight sweep.
func BenchmarkAblationAgeWeight(b *testing.B) { runExperiment(b, "weightsweep") }

// BenchmarkKPCPInteraction regenerates the §V-B KPC-P prefetcher study.
func BenchmarkKPCPInteraction(b *testing.B) { runExperiment(b, "kpcp") }

// BenchmarkMCScale regenerates the 8/16-core scaling table.
func BenchmarkMCScale(b *testing.B) { runExperiment(b, "mcscale") }

// runExperimentCold times cold runs: the memo caches are cleared every
// iteration so the full (workload × policy) grid executes, on the given
// worker count. The Jobs1/JobsMax pairs measure the parallel engine.
func runExperimentCold(b *testing.B, id string, workers int) {
	b.Helper()
	sched.SetWorkers(workers)
	defer sched.SetWorkers(0)
	s := experiments.BenchScale()
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		if _, err := experiments.Run(id, s); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

// BenchmarkColdFig10Jobs1 regenerates Figure 10 serially from cold caches.
func BenchmarkColdFig10Jobs1(b *testing.B) { runExperimentCold(b, "fig10", 1) }

// BenchmarkColdFig10JobsMax regenerates Figure 10 from cold caches with
// the full worker pool.
func BenchmarkColdFig10JobsMax(b *testing.B) { runExperimentCold(b, "fig10", runtime.NumCPU()) }

// BenchmarkColdFig13Jobs1 regenerates the 4-core mixes serially.
func BenchmarkColdFig13Jobs1(b *testing.B) { runExperimentCold(b, "fig13", 1) }

// BenchmarkColdFig13JobsMax regenerates the 4-core mixes on the full pool.
func BenchmarkColdFig13JobsMax(b *testing.B) { runExperimentCold(b, "fig13", runtime.NumCPU()) }
