package experiments

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func init() {
	register("mcscale", "N-core scaling: 8/16-core SPEC mixes with shared-LLC contention", runMCScale)
}

// mcScaleCores are the core counts beyond the paper's 4-core Table IV.
var mcScaleCores = []int{8, 16}

// mcScalePolicies is the policy series for the scaling table: the LRU
// baseline, the strongest heuristic, and the paper's multicore RLR.
var mcScalePolicies = []struct {
	Label string
	Name  string
}{
	{"LRU", "lru"},
	{"DRRIP", "drrip"},
	{"RLR", "rlr-mc"},
}

// mcScaleCell is one (cores, mix, policy) timing run.
type mcScaleCell struct {
	gIPC      float64 // geomean of per-core IPCs
	demandHit float64 // shared-LLC demand hit percentage
	mpki      float64 // shared-LLC demand MPKI (aggregated over cores)
}

func runMCScaleCell(cores int, mix []string, polName string, s Scale) (mcScaleCell, error) {
	srcs := make([]uarch.InstrSource, len(mix))
	for i, name := range mix {
		spec, err := workloads.ByName(name)
		if err != nil {
			return mcScaleCell{}, err
		}
		srcs[i] = workloads.New(spec)
	}
	sys := uarch.NewSystem(s.sysConfig(cores), policy.MustNew(polName))
	results := sys.RunMulti(srcs, s.MixWarmup, s.MixMeasure)
	ipcs := make([]float64, len(results))
	for i, r := range results {
		ipcs[i] = r.IPC()
	}
	var cell mcScaleCell
	gm, err := mathx.GeoMean(ipcs)
	if err != nil {
		return mcScaleCell{}, err
	}
	cell.gIPC = gm
	st := results[0].LLCStats
	if d := st.DemandHits + st.DemandMisses; d > 0 {
		cell.demandHit = 100 * float64(st.DemandHits) / float64(d)
	}
	cell.mpki = results[0].DemandMPKI
	return cell, nil
}

// runMCScale runs the N-core mixes and reports per-(cores, policy)
// aggregates over the mixes. Columns are all deterministic simulation
// outputs.
func runMCScale(s Scale) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "N-core scaling: geomean IPC and shared-LLC contention per policy",
		Header: []string{"cores", "policy", "GEOMEAN_IPC", "LLC_DEMAND_HIT%", "DEMAND_MPKI"},
	}
	mixCount := s.MixCount
	if mixCount > 2 {
		mixCount = 2 // N-core cells are cores× the 4-core cost; two mixes bound the suite
	}
	type job struct {
		cores int
		pol   int
		mix   int
	}
	var jobs []job
	mixesFor := map[int][][]string{}
	for _, cores := range mcScaleCores {
		mixesFor[cores] = workloads.MixesN(mixCount, cores, 2026)
		for p := range mcScalePolicies {
			for m := 0; m < mixCount; m++ {
				jobs = append(jobs, job{cores: cores, pol: p, mix: m})
			}
		}
	}
	cells, err := sched.Map(len(jobs), func(i int) (mcScaleCell, error) {
		j := jobs[i]
		return runMCScaleCell(j.cores, mixesFor[j.cores][j.mix], mcScalePolicies[j.pol].Name, s)
	})
	if err != nil {
		return nil, err
	}
	// Reduce over mixes in (cores, policy) order.
	byKey := map[string][]mcScaleCell{}
	for i, c := range cells {
		j := jobs[i]
		k := fmt.Sprintf("%d/%d", j.cores, j.pol)
		byKey[k] = append(byKey[k], c)
	}
	for _, cores := range mcScaleCores {
		for p, pol := range mcScalePolicies {
			group := byKey[fmt.Sprintf("%d/%d", cores, p)]
			ipcs := make([]float64, len(group))
			var hit, mpki float64
			for i, c := range group {
				ipcs[i] = c.gIPC
				hit += c.demandHit
				mpki += c.mpki
			}
			gm, err := mathx.GeoMean(ipcs)
			if err != nil {
				return nil, err
			}
			n := float64(len(group))
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprint(cores), pol.Label,
				stats.F2(gm), stats.F2(hit / n), stats.F2(mpki / n),
			})
		}
	}
	return tbl, nil
}
