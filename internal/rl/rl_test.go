package rl

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func pcfg(sets, ways int) policy.Config {
	return policy.Config{Config: cache.Config{Sets: sets, Ways: ways, LineSize: 64}, NumCores: 1}
}

func TestVectorSizeMatchesPaper(t *testing.T) {
	// 16-way LLC → 334 floats (§III-A).
	f := NewFeaturizer(pcfg(2048, 16), AllFeatures())
	if got := f.VectorSize(); got != 334 {
		t.Errorf("VectorSize = %d, want 334", got)
	}
}

func TestFeatureSlotsPartitionVector(t *testing.T) {
	f := NewFeaturizer(pcfg(16, 4), AllFeatures())
	slots := f.FeatureSlots()
	seen := make([]bool, f.VectorSize())
	total := 0
	for feat, idxs := range slots {
		for _, i := range idxs {
			if i < 0 || i >= len(seen) || seen[i] {
				t.Fatalf("feature %v: slot %d invalid or duplicated", feat, i)
			}
			seen[i] = true
			total++
		}
	}
	if total != f.VectorSize() {
		t.Errorf("slots cover %d of %d positions", total, f.VectorSize())
	}
}

func buildState(t *testing.T, fs FeatureSet, a trace.Access) ([]float64, *Featurizer) {
	t.Helper()
	cfg := pcfg(4, 2)
	f := NewFeaturizer(cfg, fs)
	c := cache.New(cfg.Config)
	setIdx, _, _ := c.Probe(a.Addr)
	c.RecordMissTouch(setIdx)
	c.Fill(setIdx, 0, a)
	dst := make([]float64, f.VectorSize())
	f.Build(dst, policy.AccessCtx{Access: a, SetIdx: setIdx}, c.Set(setIdx), 5)
	return dst, f
}

func TestDirectMappedFeaturizerFinite(t *testing.T) {
	// Regression: with Ways == 1 the recency feature normalized by
	// Ways-1 == 0, injecting NaN (0/0) into the state vector.
	cfg := pcfg(4, 1)
	f := NewFeaturizer(cfg, AllFeatures())
	c := cache.New(cfg.Config)
	a := trace.Access{PC: 0x400, Addr: 0x40, Type: trace.Load}
	setIdx, _, _ := c.Probe(a.Addr)
	c.RecordMissTouch(setIdx)
	c.Fill(setIdx, 0, a)
	dst := make([]float64, f.VectorSize())
	f.Build(dst, policy.AccessCtx{Access: a, SetIdx: setIdx}, c.Set(setIdx), 5)
	for i, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v in a direct-mapped cache", i, v)
		}
	}
}

func TestOffsetBitsEncoded(t *testing.T) {
	a := trace.Access{PC: 1, Addr: 0x1000 + 0b101101, Type: trace.Load}
	dst, _ := buildState(t, AllFeatures(), a)
	want := []float64{1, 0, 1, 1, 0, 1} // LSB first
	for i, w := range want {
		if dst[i] != w {
			t.Errorf("offset bit %d = %v, want %v (vector head %v)", i, dst[i], w, dst[:6])
		}
	}
}

func TestAccessTypeOneHot(t *testing.T) {
	a := trace.Access{PC: 1, Addr: 0x40, Type: trace.Prefetch}
	dst, _ := buildState(t, AllFeatures(), a)
	// One-hot occupies positions 7..10 (after 6 offset bits + 1 preuse).
	oneHot := dst[7:11]
	want := []float64{0, 0, 1, 0}
	for i := range want {
		if oneHot[i] != want[i] {
			t.Errorf("type one-hot = %v, want %v", oneHot, want)
		}
	}
}

func TestDisabledFeaturesAreZero(t *testing.T) {
	a := trace.Access{PC: 1, Addr: 0x7F, Type: trace.Load}
	only, f := buildState(t, Only(FLinePreuse), a)
	slots := f.FeatureSlots()
	enabled := map[int]bool{}
	for _, i := range slots[FLinePreuse] {
		enabled[i] = true
	}
	for i, v := range only {
		if !enabled[i] && v != 0 {
			t.Errorf("disabled slot %d = %v, want 0", i, v)
		}
	}
}

func TestNormalizationClamped(t *testing.T) {
	cfg := pcfg(4, 2)
	f := NewFeaturizer(cfg, AllFeatures())
	c := cache.New(cfg.Config)
	a := trace.Access{PC: 1, Addr: 0, Type: trace.Load}
	setIdx, _, _ := c.Probe(a.Addr)
	c.RecordMissTouch(setIdx)
	c.Fill(setIdx, 0, a)
	// Age the line far beyond the normalization cap.
	for i := 0; i < 100000; i++ {
		c.RecordMissTouch(setIdx)
	}
	dst := make([]float64, f.VectorSize())
	f.Build(dst, policy.AccessCtx{Access: a, SetIdx: setIdx}, c.Set(setIdx), cachesim.NeverAccessed)
	for i, v := range dst {
		if v < 0 || v > 1 {
			t.Errorf("slot %d = %v outside [0,1]", i, v)
		}
	}
}

func TestFeatureNames(t *testing.T) {
	if FLinePreuse.String() != "line preuse" {
		t.Errorf("FLinePreuse name = %q", FLinePreuse.String())
	}
	if Feature(99).String() == "" {
		t.Error("out-of-range feature produced empty name")
	}
	if int(NumFeatures) != 18 {
		t.Errorf("NumFeatures = %d, want 18 (Table II rows)", int(NumFeatures))
	}
}

func TestReplayOverwriteAndSample(t *testing.T) {
	r := NewReplay(4)
	if r.Len() != 0 {
		t.Fatalf("empty replay Len = %d", r.Len())
	}
	for i := 0; i < 6; i++ {
		r.Push(Transition{Action: i})
	}
	if r.Len() != 4 {
		t.Fatalf("Len after overflow = %d, want 4", r.Len())
	}
	rng := xrand.New(1)
	batch := r.Sample(nil, 100, rng)
	if len(batch) != 100 {
		t.Fatalf("sample len = %d", len(batch))
	}
	for _, tr := range batch {
		// Actions 0 and 1 were overwritten by 4 and 5.
		if tr.Action == 0 || tr.Action == 1 {
			t.Fatalf("sampled overwritten transition %d", tr.Action)
		}
	}
}

func TestReplayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-replay sample did not panic")
		}
	}()
	NewReplay(2).Sample(nil, 1, xrand.New(1))
}

// trainCfg returns a small geometry + agent config for fast tests.
func trainCfg() (cache.Config, TrainOptions) {
	cc := cache.Config{Sets: 2, Ways: 4, LineSize: 64}
	opts := TrainOptions{
		Agent: AgentConfig{
			Hidden: 24, Epsilon: 0.1, LearningRate: 3e-3,
			BatchSize: 16, ReplayCap: 2048, MinReplay: 64,
			TrainEvery: 2, Seed: 7, Features: AllFeatures(),
		},
		Epochs: 6,
	}
	return cc, opts
}

// cyclicTrace builds the classic LRU-pathological cyclic pattern over
// nBlocks in set 0 of a 2-set cache.
func cyclicTrace(nBlocks, reps int) []trace.Access {
	var out []trace.Access
	for r := 0; r < reps; r++ {
		for b := 0; b < nBlocks; b++ {
			out = append(out, trace.Access{
				PC:   uint64(0x400 + b*4),
				Addr: uint64(b) * 2 * 64, // stride 2 blocks → all in set 0
				Type: trace.Load,
			})
		}
	}
	return out
}

func TestAgentLearnsCyclicPattern(t *testing.T) {
	// 6 blocks cycling through a 4-way set: LRU scores zero hits; Belady
	// scores 60%. A trained agent must land well above LRU and approach
	// the oracle.
	cc, opts := trainCfg()
	accesses := cyclicTrace(6, 400)

	lru := cachesim.RunPolicy(cc, policy.MustNew("lru"), accesses)
	if lru.Hits != 0 {
		t.Fatalf("LRU hits = %d, want 0 on cyclic thrash", lru.Hits)
	}
	oracle := policy.NewOracle(accesses, 64)
	bel := cachesim.RunPolicy(cc, policy.NewBelady(oracle), accesses)

	agent := Train(cc, accesses, opts)
	got := Evaluate(cc, agent, accesses)

	if got.Hits == 0 {
		t.Fatal("trained agent scored zero hits")
	}
	if float64(got.Hits) < 0.5*float64(bel.Hits) {
		t.Errorf("trained agent hits %d < 50%% of Belady %d", got.Hits, bel.Hits)
	}
	t.Logf("LRU=%d agent=%d belady=%d hits", lru.Hits, got.Hits, bel.Hits)
}

func TestAgentDeterministicEvaluation(t *testing.T) {
	cc, opts := trainCfg()
	opts.Epochs = 2
	accesses := cyclicTrace(6, 150)
	agent := Train(cc, accesses, opts)
	a := Evaluate(cc, agent, accesses)
	b := Evaluate(cc, agent, accesses)
	if a != b {
		t.Errorf("greedy evaluation not deterministic: %+v vs %+v", a, b)
	}
}

func TestRewardSignals(t *testing.T) {
	// Trace: blocks 0,1 then 2; block 0 reused right after, block 1 last.
	// At the miss for block 2 (seq 2): farthest line is block 1; inserted
	// block 2 is reused at seq 5.
	accesses := []trace.Access{
		{PC: 1, Addr: 0 * 128, Type: trace.Load},
		{PC: 1, Addr: 1 * 128, Type: trace.Load},
		{PC: 1, Addr: 2 * 128, Type: trace.Load}, // miss: decision here
		{PC: 1, Addr: 0 * 128, Type: trace.Load}, // block 0 reused at 3
		{PC: 1, Addr: 2 * 128, Type: trace.Load}, // block 2 reused at 4
		{PC: 1, Addr: 1 * 128, Type: trace.Load}, // block 1 reused at 5
	}
	cc := cache.Config{Sets: 2, Ways: 2, LineSize: 64}
	oracle := policy.NewOracle(accesses, 64)
	agent := NewAgent(AgentConfig{
		Hidden: 8, BatchSize: 4, ReplayCap: 16, MinReplay: 100,
		TrainEvery: 1, Features: AllFeatures(),
	})
	agent.SetOracle(oracle)
	agent.Init(policy.Config{Config: cc, NumCores: 1})

	c := cache.New(cc)
	set0 := uint32(0)
	c.RecordMissTouch(set0)
	c.Fill(set0, 0, accesses[0])
	c.RecordMissTouch(set0)
	c.Fill(set0, 1, accesses[1])
	ctx := policy.AccessCtx{Access: accesses[2], Seq: 2, SetIdx: set0}

	// Evicting way 1 (block 1, reused last) is the Belady decision: +1.
	if r := agent.reward(ctx, c.Set(set0), 1); r != 1 {
		t.Errorf("reward for optimal eviction = %v, want 1", r)
	}
	// Evicting way 0 (block 0, reused at 3, sooner than inserted block 2 at
	// 4) is the bad decision: −1.
	if r := agent.reward(ctx, c.Set(set0), 0); r != -1 {
		t.Errorf("reward for pessimal eviction = %v, want -1", r)
	}
}

func TestRewardNeutral(t *testing.T) {
	// Three ways: evicting the middle line (reused after the inserted
	// block but not farthest) earns 0.
	accesses := []trace.Access{
		{PC: 1, Addr: 0 * 128, Type: trace.Load},
		{PC: 1, Addr: 1 * 128, Type: trace.Load},
		{PC: 1, Addr: 2 * 128, Type: trace.Load},
		{PC: 1, Addr: 3 * 128, Type: trace.Load}, // decision at seq 3
		{PC: 1, Addr: 0 * 128, Type: trace.Load}, // 0 reused at 4
		{PC: 1, Addr: 3 * 128, Type: trace.Load}, // inserted reused at 5
		{PC: 1, Addr: 1 * 128, Type: trace.Load}, // 1 reused at 6 (middle)
		{PC: 1, Addr: 2 * 128, Type: trace.Load}, // 2 reused at 7 (farthest)
	}
	cc := cache.Config{Sets: 2, Ways: 3, LineSize: 64}
	oracle := policy.NewOracle(accesses, 64)
	agent := NewAgent(AgentConfig{
		Hidden: 8, BatchSize: 4, ReplayCap: 16, MinReplay: 100,
		TrainEvery: 1, Features: AllFeatures(),
	})
	agent.SetOracle(oracle)
	agent.Init(policy.Config{Config: cc, NumCores: 1})
	c := cache.New(cc)
	for i := 0; i < 3; i++ {
		c.RecordMissTouch(0)
		c.Fill(0, i, accesses[i])
	}
	ctx := policy.AccessCtx{Access: accesses[3], Seq: 3, SetIdx: 0}
	if r := agent.reward(ctx, c.Set(0), 1); r != 0 {
		t.Errorf("neutral eviction reward = %v, want 0", r)
	}
	if r := agent.reward(ctx, c.Set(0), 2); r != 1 {
		t.Errorf("farthest eviction reward = %v, want 1", r)
	}
	if r := agent.reward(ctx, c.Set(0), 0); r != -1 {
		t.Errorf("soonest eviction reward = %v, want -1", r)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	cc, opts := trainCfg()
	opts.Epochs = 1
	accesses := cyclicTrace(6, 100)
	agent := Train(cc, accesses, opts)
	ref := Evaluate(cc, agent, accesses)

	var buf bytes.Buffer
	if err := agent.SaveModel(&buf); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	fresh := NewAgent(opts.Agent)
	fresh.Init(policy.Config{Config: cc, NumCores: 1})
	if err := fresh.LoadModel(&buf); err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	got := Evaluate(cc, fresh, accesses)
	if got != ref {
		t.Errorf("loaded agent stats %+v != original %+v", got, ref)
	}
}

func TestVictimObserver(t *testing.T) {
	cc, opts := trainCfg()
	opts.Epochs = 1
	accesses := cyclicTrace(6, 50)
	agent := NewAgent(opts.Agent)
	agent.SetOracle(policy.NewOracle(accesses, 64))
	agent.SetTraining(true)
	calls := 0
	agent.VictimObserver = func(ctx policy.AccessCtx, set *cache.Set, way int) {
		if way < 0 || way >= cc.Ways {
			t.Fatalf("observer saw invalid way %d", way)
		}
		calls++
	}
	sim := cachesim.New(cc, 1, agent)
	agent.SetSim(sim)
	sim.Run(accesses)
	if calls == 0 {
		t.Error("victim observer never called")
	}
}
