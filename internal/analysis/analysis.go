// Package analysis implements the §III-B insight-mining pipeline that turns
// a trained RL agent into the design rules behind RLR: the neural-network
// weight heat map (Figure 3), greedy hill-climbing feature selection, the
// preuse-versus-reuse-distance comparison (Figure 4), and the victim
// statistics — age by access type (Figure 5), hits at eviction (Figure 6),
// and recency at eviction (Figure 7).
package analysis

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/mathx"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/trace"
)

// HeatMapRow is one Figure 3 cell column entry: a Table II feature and its
// importance (mean |input weight| over the feature's slots and the hidden
// layer, averaged across ways for line features).
type HeatMapRow struct {
	Feature rl.Feature
	Weight  float64
}

// HeatMap computes the feature-importance rows for a trained agent, sorted
// by descending weight.
func HeatMap(agent *rl.Agent) []HeatMapRow {
	slots := agent.Featurizer().FeatureSlots()
	net := agent.Network()
	rows := make([]HeatMapRow, 0, len(slots))
	for feat, idxs := range slots {
		var m mathx.RunningMean
		for _, i := range idxs {
			m.Add(net.MeanAbsInputWeight(i))
		}
		rows = append(rows, HeatMapRow{Feature: feat, Weight: m.Mean()})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Weight != rows[j].Weight {
			return rows[i].Weight > rows[j].Weight
		}
		return rows[i].Feature < rows[j].Feature
	})
	return rows
}

// HillClimbStep is one round of the §III-B greedy feature search.
type HillClimbStep struct {
	Added   rl.Feature
	Set     rl.FeatureSet
	HitRate float64
}

// HillClimb performs the paper's hill-climbing feature selection: train an
// agent with each single feature, keep the best; then repeatedly add the
// one feature that most improves hit rate, stopping when no candidate
// improves it (or maxFeatures is reached). The returned steps record the
// chosen feature and achieved hit rate per round.
func HillClimb(cfg cache.Config, accesses []trace.Access, opts rl.TrainOptions, maxFeatures int) []HillClimbStep {
	if maxFeatures <= 0 || maxFeatures > int(rl.NumFeatures) {
		maxFeatures = int(rl.NumFeatures)
	}
	var steps []HillClimbStep
	var current rl.FeatureSet
	best := -1.0
	for len(steps) < maxFeatures {
		bestFeat := rl.Feature(-1)
		bestRate := best
		var bestSet rl.FeatureSet
		for f := rl.Feature(0); f < rl.NumFeatures; f++ {
			if current[f] {
				continue
			}
			candidate := current.With(f)
			o := opts
			o.Agent.Features = candidate
			agent := rl.Train(cfg, accesses, o)
			rate := rl.Evaluate(cfg, agent, accesses).HitRate()
			if rate > bestRate {
				bestRate, bestFeat, bestSet = rate, f, candidate
			}
		}
		if bestFeat < 0 {
			break // no feature improves the hit rate: §III-B's stop rule
		}
		current, best = bestSet, bestRate
		steps = append(steps, HillClimbStep{Added: bestFeat, Set: current, HitRate: bestRate})
	}
	return steps
}

// PreuseReuse is the Figure 4 distribution: the share of reused lines whose
// |preuse − reuse| distance difference falls below 10, in [10, 50), and at
// or above 50 set accesses.
type PreuseReuse struct {
	Below10   float64
	Mid10to50 float64
	Above50   float64
	Samples   int64
}

// PreuseReuseDiff replays an LLC access trace and, for every address with
// at least two prior references to its set, compares the previous
// inter-access gap (preuse distance) with the current one (reuse
// distance), both measured in set accesses — Figure 4's methodology.
func PreuseReuseDiff(cfg cache.Config, accesses []trace.Access) PreuseReuse {
	c := cache.New(cfg) // used only for address → set mapping
	setAcc := make([]uint64, cfg.Sets)
	type hist struct {
		t1, t2 uint64
		n      uint8
	}
	last := make(map[uint64]*hist, 1<<16)

	h := mathx.NewHistogram(10, 50)
	for _, a := range accesses {
		set := c.SetIndex(a.Addr)
		blk := c.BlockAddr(a.Addr)
		n := setAcc[set]
		setAcc[set]++
		key := uint64(set)<<40 | (blk & 0xFFFFFFFFFF)
		e := last[key]
		if e == nil {
			last[key] = &hist{t1: n, n: 1}
			continue
		}
		if e.n >= 2 {
			preuse := float64(e.t1 - e.t2)
			reuse := float64(n - e.t1)
			d := preuse - reuse
			if d < 0 {
				d = -d
			}
			h.Add(d)
		}
		e.t2, e.t1 = e.t1, n
		if e.n < 2 {
			e.n = 2
		}
	}
	fr := h.Fractions()
	return PreuseReuse{Below10: fr[0], Mid10to50: fr[1], Above50: fr[2], Samples: h.Total()}
}

// VictimStats aggregates eviction-time metadata — Figures 5, 6, and 7.
type VictimStats struct {
	// AvgAgeByType[t] is the mean age since last access of victims whose
	// last access had type t (Figure 5).
	AvgAgeByType [trace.NumAccessTypes]float64
	CountByType  [trace.NumAccessTypes]int64
	// HitsZero/HitsOne/HitsMore partition victims by hits since insertion
	// (Figure 6), as fractions.
	HitsZero, HitsOne, HitsMore float64
	// RecencyPct[r] is the percentage of victims evicted at recency r
	// (Figure 7; length = associativity).
	RecencyPct []float64
	Victims    int64
}

// CollectVictimStats replays accesses under pol and aggregates the
// eviction statistics of Figures 5–7 from each victim's metadata. For the
// paper's figures pol is the trained RL agent; any policy works.
func CollectVictimStats(cfg cache.Config, pol policy.Policy, accesses []trace.Access) VictimStats {
	sim := cachesim.New(cfg, 1, pol)
	if ag, ok := pol.(*rl.Agent); ok {
		ag.SetSim(sim)
	}
	var ages [trace.NumAccessTypes]mathx.RunningMean
	var hits0, hits1, hitsN int64
	recency := make([]int64, cfg.Ways)
	var victims int64
	for _, a := range accesses {
		res := sim.Step(a)
		if !res.Evicted {
			continue
		}
		v := &res.Victim
		set := sim.Cache().Set(res.SetIdx)
		victims++
		ages[v.LastAccessType].Add(float64(set.AgeSinceAccess(v)))
		switch {
		case v.HitsSinceInsert == 0:
			hits0++
		case v.HitsSinceInsert == 1:
			hits1++
		default:
			hitsN++
		}
		recency[set.Recency(v)]++
	}
	var out VictimStats
	out.Victims = victims
	for t := range ages {
		out.AvgAgeByType[t] = ages[t].Mean()
		out.CountByType[t] = ages[t].Count()
	}
	if victims > 0 {
		out.HitsZero = float64(hits0) / float64(victims)
		out.HitsOne = float64(hits1) / float64(victims)
		out.HitsMore = float64(hitsN) / float64(victims)
	}
	out.RecencyPct = make([]float64, cfg.Ways)
	for r, c := range recency {
		if victims > 0 {
			out.RecencyPct[r] = 100 * float64(c) / float64(victims)
		}
	}
	return out
}
