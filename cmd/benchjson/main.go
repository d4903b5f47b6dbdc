// Command benchjson writes the repository's committed micro-level
// performance artifacts as JSON, so their trajectory is tracked across
// changes.
//
// Usage:
//
//	benchjson -hotpath < bench.txt    # go test -bench Hotpath output -> BENCH_hotpath.json
//	benchjson -intervals              # representative intervals -> BENCH_intervals.json
//	benchjson -intervals -quick -o -  # CI smoke: one small workload, stdout
//	benchjson -pairs < pairs.txt      # scripts/pairs.sh output -> BENCH_pairs.json
//
// -hotpath converts the hot-path benchmarks' output into medians (see
// hotpath.go); -intervals measures representative-interval selection
// against full-trace simulation (see intervals.go); -pairs summarizes
// paired perfbench runs of two commits (see pairs.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		out     = flag.String("o", "", "output file ('-' for stdout; default BENCH_<mode>.json)")
		jobs    = flag.Int("jobs", 0, "with -intervals: worker count (0 = NumCPU)")
		hotpath = flag.Bool("hotpath", false, "convert go test -bench Hotpath output on stdin into medians")
		intvls  = flag.Bool("intervals", false, "measure representative-interval selection vs full-trace simulation")
		quick   = flag.Bool("quick", false, "with -intervals: one small workload (CI smoke)")
		pairs   = flag.Bool("pairs", false, "convert scripts/pairs.sh output on stdin into paired summaries")
	)
	flag.Parse()

	var err error
	switch {
	case *intvls:
		err = runIntervals(*quick, *jobs, outPath(*out, "BENCH_intervals.json"))
	case *hotpath:
		err = runHotpath(outPath(*out, "BENCH_hotpath.json"))
	case *pairs:
		err = runPairs(outPath(*out, "BENCH_pairs.json"))
	default:
		fmt.Fprintln(os.Stderr, "benchjson: one of -hotpath, -intervals or -pairs is required")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// outPath returns the -o value, or def when it is empty.
func outPath(o, def string) string {
	if o == "" {
		return def
	}
	return o
}

// writeJSON writes v as indented JSON to path, or to stdout for "-".
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
