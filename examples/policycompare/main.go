// policycompare reproduces a Figure 1-style comparison on a few workloads:
// every registered replacement policy (plus the Belady oracle) replayed
// over the same captured LLC access trace, ranked by hit rate.
//
//	go run ./examples/policycompare
package main

import (
	"fmt"
	"sort"

	"repro/internal/cachesim"
	_ "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/policy"
)

func main() {
	// Table III geometry with a trimmed trace: the policies' relative
	// behaviour only makes sense against the real 2MB 16-way LLC.
	s := experiments.FullScale()
	s.TraceLen = 120_000
	cfg := s.LLCConfig()
	for _, bench := range []string{"429.mcf", "483.xalancbmk", "470.lbm"} {
		tr, err := experiments.CaptureLLCTrace(bench, s)
		if err != nil {
			panic(err)
		}
		fmt.Printf("== %s (%d LLC accesses) ==\n", bench, len(tr))

		type row struct {
			name string
			rate float64
		}
		var rows []row
		for _, name := range []string{"lru", "random", "srrip", "drrip", "kpc-r",
			"ship", "ship++", "hawkeye", "pdp", "eva", "rwp", "cbr",
			"rlr", "rlr-unopt"} {
			st := cachesim.RunPolicy(cfg, policy.MustNew(name), tr)
			rows = append(rows, row{name, st.HitRate()})
		}
		oracle := policy.NewOracle(tr, cfg.LineSize)
		st := cachesim.RunPolicy(cfg, policy.NewBelady(oracle), tr)
		rows = append(rows, row{"belady (oracle)", st.HitRate()})

		sort.Slice(rows, func(i, j int) bool { return rows[i].rate > rows[j].rate })
		for _, r := range rows {
			fmt.Printf("  %-16s %6.2f%%\n", r.name, r.rate)
		}
		fmt.Println()
	}
}
