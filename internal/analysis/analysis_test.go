package analysis

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/trace"
)

func smallCfg() cache.Config { return cache.Config{Sets: 2, Ways: 4, LineSize: 64} }

func smallOpts() rl.TrainOptions {
	return rl.TrainOptions{
		Agent: rl.AgentConfig{
			Hidden: 16, Epsilon: 0.1, LearningRate: 3e-3, BatchSize: 16,
			ReplayCap: 1024, MinReplay: 64, TrainEvery: 2,
			Seed: 5, Features: rl.AllFeatures(),
		},
		Epochs: 3,
	}
}

func cyclic(nBlocks, reps int) []trace.Access {
	var out []trace.Access
	for r := 0; r < reps; r++ {
		for b := 0; b < nBlocks; b++ {
			out = append(out, trace.Access{
				PC: uint64(0x400 + b*4), Addr: uint64(b) * 2 * 64, Type: trace.Load,
			})
		}
	}
	return out
}

func TestHeatMapCoversAllFeatures(t *testing.T) {
	agent := rl.Train(smallCfg(), cyclic(6, 200), smallOpts())
	rows := HeatMap(agent)
	if len(rows) != int(rl.NumFeatures) {
		t.Fatalf("heat map rows = %d, want %d", len(rows), int(rl.NumFeatures))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Weight > rows[i-1].Weight {
			t.Fatalf("heat map not sorted at %d", i)
		}
	}
	for _, r := range rows {
		if math.IsNaN(r.Weight) || r.Weight < 0 {
			t.Errorf("feature %v weight %v invalid", r.Feature, r.Weight)
		}
	}
}

func TestHillClimbFindsUsefulFeature(t *testing.T) {
	// Cap the search to keep the test fast: 2 rounds over a short trace.
	opts := smallOpts()
	opts.Epochs = 2
	accesses := cyclic(6, 120)
	steps := HillClimb(smallCfg(), accesses, opts, 2)
	if len(steps) == 0 {
		t.Fatal("hill climbing selected no features at all")
	}
	if steps[0].HitRate <= 0 {
		t.Errorf("first-feature hit rate = %v", steps[0].HitRate)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].HitRate < steps[i-1].HitRate {
			t.Errorf("hill climb regressed: %v -> %v", steps[i-1].HitRate, steps[i].HitRate)
		}
	}
}

func TestPreuseReuseConstantDistance(t *testing.T) {
	// Strictly periodic reuse: preuse == reuse for every access after the
	// second, so 100% of samples fall in the <10 bucket.
	got := PreuseReuseDiff(smallCfg(), cyclic(4, 50))
	if got.Samples == 0 {
		t.Fatal("no samples collected")
	}
	if got.Below10 < 0.999 {
		t.Errorf("Below10 = %v, want ~1 for periodic trace", got.Below10)
	}
}

func TestPreuseReuseIrregular(t *testing.T) {
	// Alternate a short and a very long gap for one block: |preuse-reuse|
	// is large every time it is measurable.
	var accesses []trace.Access
	push := func(b uint64) {
		accesses = append(accesses, trace.Access{PC: 1, Addr: b * 2 * 64, Type: trace.Load})
	}
	for rep := 0; rep < 30; rep++ {
		push(0)
		push(0) // gap 1
		for f := uint64(1); f <= 100; f++ {
			push(f) // gap 100 before next block-0 access
		}
	}
	got := PreuseReuseDiff(smallCfg(), accesses)
	if got.Above50 == 0 {
		t.Errorf("Above50 = 0 for alternating 1/100 gaps: %+v", got)
	}
	sum := got.Below10 + got.Mid10to50 + got.Above50
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestVictimStatsLRU(t *testing.T) {
	// Under cyclic thrash with LRU every victim has 0 hits and recency 0.
	st := CollectVictimStats(smallCfg(), policy.MustNew("lru"), cyclic(6, 100))
	if st.Victims == 0 {
		t.Fatal("no victims observed")
	}
	if st.HitsZero < 0.999 {
		t.Errorf("HitsZero = %v, want ~1 under thrash", st.HitsZero)
	}
	if st.RecencyPct[0] < 99.9 {
		t.Errorf("LRU victims should all have recency 0: %v", st.RecencyPct)
	}
}

func TestVictimStatsMRUEvictsHighRecency(t *testing.T) {
	st := CollectVictimStats(smallCfg(), policy.MustNew("mru"), cyclic(6, 100))
	if st.Victims == 0 {
		t.Fatal("no victims observed")
	}
	last := len(st.RecencyPct) - 1
	if st.RecencyPct[last] < 99 {
		t.Errorf("MRU victims should have max recency: %v", st.RecencyPct)
	}
}

func TestVictimStatsAgentPrefersPrefetchVictims(t *testing.T) {
	// Mix demand-reused lines with never-reused prefetches; the trained
	// agent should evict prefetched lines younger than demand lines —
	// the Figure 5 shape.
	var accesses []trace.Access
	pfBlock := uint64(1000)
	for rep := 0; rep < 400; rep++ {
		for b := uint64(0); b < 3; b++ {
			accesses = append(accesses, trace.Access{PC: 0x40, Addr: b * 2 * 64, Type: trace.Load})
		}
		accesses = append(accesses, trace.Access{PC: 0x90, Addr: pfBlock * 2 * 64, Type: trace.Prefetch})
		pfBlock++
	}
	agent := rl.Train(smallCfg(), accesses, smallOpts())
	st := CollectVictimStats(smallCfg(), agent, accesses)
	if st.CountByType[trace.Prefetch] == 0 {
		t.Fatal("agent never evicted a prefetched line")
	}
	if st.CountByType[trace.Load] > 0 &&
		st.AvgAgeByType[trace.Prefetch] > st.AvgAgeByType[trace.Load] {
		t.Errorf("prefetch victims older (%.1f) than load victims (%.1f); expect younger",
			st.AvgAgeByType[trace.Prefetch], st.AvgAgeByType[trace.Load])
	}
}
