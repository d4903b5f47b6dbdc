package experiments

import (
	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("tab1", "Table I: hardware overhead per replacement policy (16-way 2MB)", runTab1)
	register("fig1", "Figure 1: LLC hit rate — LRU/DRRIP/SHiP/SHiP++/Hawkeye/RLR/RL/Belady", runFig1)
}

// runTab1 renders Table I at the paper's 2MB 16-way geometry.
func runTab1(Scale) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Table I: hardware overhead for a 16-way 2MB cache",
		Header: []string{"policy", "uses PC", "overhead (KB)", "source"},
	}
	for _, o := range core.TableOne(cache.Config{Sets: 2048, Ways: 16, LineSize: 64}) {
		pc := "No"
		if o.UsesPC {
			pc = "Yes"
		}
		src := "modeled"
		if o.FromPaper {
			src = "paper-reported"
		}
		tbl.AddRow(o.Policy, pc, stats.F2(o.KB()), src)
	}
	return tbl, nil
}

// fig1Policies are the Figure 1 x-axis series, in the paper's order. The
// RL agent and Belady entries are handled specially.
var fig1Policies = []string{"lru", "drrip", "ship", "ship++", "hawkeye", "rlr"}

func runFig1(s Scale) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 1: LLC hit rate (%) on the training benchmarks",
		Header: append(append([]string{"benchmark"}, "LRU", "DRRIP", "SHiP", "SHiP++", "HAWKEYE", "RLR"), "RL", "BELADY"),
	}
	cfg := s.LLCConfig()
	benches := workloadTrainingNames()
	// One row per training benchmark, each a self-contained chain (capture
	// → replay under each policy → train agent → Belady bound); rows run
	// in parallel and assemble in benchmark order.
	rows, err := sched.Map(len(benches), func(i int) ([]string, error) {
		bench := benches[i]
		tr, err := CaptureLLCTrace(bench, s)
		if err != nil {
			return nil, err
		}
		row := []string{bench}
		for _, pname := range fig1Policies {
			st := cachesim.RunPolicy(cfg, policy.MustNew(pname), tr)
			row = append(row, stats.F2(st.HitRate()))
		}
		err = withTrainedAgent(bench, s, func(agent *rl.Agent, _ []trace.Access) error {
			row = append(row, stats.F2(rl.Evaluate(cfg, agent, tr).HitRate()))
			return nil
		})
		if err != nil {
			return nil, err
		}
		oracle, err := BeladyOracle(bench, s)
		if err != nil {
			return nil, err
		}
		bel := cachesim.RunPolicy(cfg, policy.NewBelady(oracle), tr)
		row = append(row, stats.F2(bel.HitRate()))
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Rows = append(tbl.Rows, rows...)
	return tbl, nil
}
