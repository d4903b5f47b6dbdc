package rl

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// TestReplayPutZeroAllocs pins the recycled-buffer store: once the ring has
// wrapped, Put must reuse each slot's slices.
func TestReplayPutZeroAllocs(t *testing.T) {
	r := NewReplay(64)
	state := make([]float64, 32)
	for i := 0; i < 2*64; i++ { // wrap the ring so every slot owns buffers
		r.Put(state, i%4, 1)
	}
	allocs := testing.AllocsPerRun(500, func() { r.Put(state, 1, -1) })
	if allocs != 0 {
		t.Errorf("Replay.Put allocates %.1f objects/op after warm-up, want 0", allocs)
	}
}

// TestFeaturizerBuildZeroAllocs pins the Table II vector construction.
func TestFeaturizerBuildZeroAllocs(t *testing.T) {
	cfg := policy.Config{Config: cache.Config{Sets: 16, Ways: 4, LineSize: 64}, NumCores: 1}
	f := NewFeaturizer(cfg, AllFeatures())
	state := make([]float64, f.VectorSize())
	set := &cache.Set{Lines: make([]cache.Line, 4)}
	for w := range set.Lines {
		set.Lines[w] = cache.Line{Valid: true, Block: uint64(w), LastAccessType: trace.Load}
	}
	ctx := policy.AccessCtx{
		Access: trace.Access{PC: 0x40112a, Addr: 0x8000, Type: trace.Load},
		Seq:    123, SetIdx: 3,
	}
	allocs := testing.AllocsPerRun(500, func() { f.Build(state, ctx, set, 17) })
	if allocs != 0 {
		t.Errorf("Featurizer.Build allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAgentDecisionSteadyStateAllocs drives a training agent through a
// simulator long enough to fill the replay ring, then checks that further
// decisions allocate (amortized) nothing: the feature build, pending-state
// copy, Replay.Put, and minibatch updates all run in recycled buffers.
func TestAgentDecisionSteadyStateAllocs(t *testing.T) {
	ccfg := cache.Config{Sets: 4, Ways: 4, LineSize: 64}
	acfg := DefaultAgentConfig()
	acfg.Hidden = 8
	acfg.ReplayCap = 128
	acfg.MinReplay = 32
	rng := xrand.New(7)
	accesses := make([]trace.Access, 20000)
	for i := range accesses {
		accesses[i] = trace.Access{PC: rng.Uint64n(8), Addr: rng.Uint64n(64) * 64, Type: trace.Load}
	}
	agent := NewAgent(acfg)
	oracle := policy.NewOracle(accesses, ccfg.LineSize)
	agent.SetOracle(oracle)
	agent.SetTraining(true)
	sim := cachesim.New(ccfg, 1, agent)
	agent.SetSim(sim)

	warm := 10000
	for _, a := range accesses[:warm] {
		sim.Step(a)
	}
	i := warm
	allocs := testing.AllocsPerRun(5000, func() {
		sim.Step(accesses[i])
		i++
	})
	// Not pinned to exactly 0: the replay-sample batch and Adam bookkeeping
	// may allocate on rare paths, but steady state must be far below one
	// object per access.
	if allocs > 0.01 {
		t.Errorf("training Step allocates %.3f objects/op in steady state, want ~0", allocs)
	}
}
