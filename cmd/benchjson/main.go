// Command benchjson writes the repository's committed micro-level
// performance artifacts as JSON, so their trajectory is tracked across
// changes.
//
// Usage:
//
//	benchjson -hotpath                # per-access hot path -> BENCH_hotpath.json
//	benchjson -hotpath -quick -o -    # CI smoke: small trace, stdout
//	benchjson -intervals              # representative intervals -> BENCH_intervals.json
//	benchjson -intervals -quick -o -  # CI smoke: one small workload, stdout
//
// -hotpath measures the per-access inner loops and the chain-driven Belady
// replay (see hotpath.go); -intervals measures representative-interval
// selection against full-trace simulation (see intervals.go).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		out     = flag.String("o", "", "output file ('-' for stdout; default BENCH_hotpath.json or BENCH_intervals.json)")
		jobs    = flag.Int("jobs", 0, "with -intervals: worker count (0 = NumCPU)")
		hotpath = flag.Bool("hotpath", false, "measure the per-access hot path")
		intvls  = flag.Bool("intervals", false, "measure representative-interval selection vs full-trace simulation")
		quick   = flag.Bool("quick", false, "small traces and short budgets (CI smoke)")
	)
	flag.Parse()

	var err error
	switch {
	case *intvls:
		err = runIntervals(*quick, *jobs, outPath(*out, "BENCH_intervals.json"))
	case *hotpath:
		err = runHotpath(*quick, outPath(*out, "BENCH_hotpath.json"))
	default:
		fmt.Fprintln(os.Stderr, "benchjson: one of -hotpath or -intervals is required")
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
