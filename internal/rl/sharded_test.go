package rl

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
)

func TestShardedRouting(t *testing.T) {
	cfg := cache.Config{Sets: 4, Ways: 2, LineSize: 64}
	sh := NewSharded(2, AgentConfig{
		Hidden: 8, BatchSize: 4, ReplayCap: 64, MinReplay: 1000,
		TrainEvery: 1, TargetSync: 100, Features: AllFeatures(),
	})
	sh.Init(policy.Config{Config: cfg, NumCores: 1})
	if len(sh.Agents()) != 2 {
		t.Fatalf("agents = %d, want 2", len(sh.Agents()))
	}
	if sh.shard(0) != sh.shard(2) || sh.shard(1) != sh.shard(3) {
		t.Error("modulo routing broken")
	}
	if sh.shard(0) == sh.shard(1) {
		t.Error("adjacent sets routed to the same shard")
	}
}

func TestShardedLearnsCyclic(t *testing.T) {
	cc := cache.Config{Sets: 2, Ways: 4, LineSize: 64}
	opts := TrainOptions{
		Agent: AgentConfig{
			Hidden: 16, Epsilon: 0.1, LearningRate: 3e-3, BatchSize: 16,
			ReplayCap: 1024, MinReplay: 64, TrainEvery: 2, TargetSync: 128,
			Seed: 3, Features: AllFeatures(),
		},
		Epochs: 5,
	}
	accesses := cyclicTrace(6, 300)
	sh, _ := TrainShardedParallel(cc, 2, accesses, opts)
	got := EvaluateSharded(cc, sh, accesses)
	if got.Hits == 0 {
		t.Error("sharded agent learned nothing on the cyclic pattern")
	}
	// Determinism of greedy evaluation.
	if again := EvaluateSharded(cc, sh, accesses); again != got {
		t.Error("sharded evaluation not deterministic")
	}
}

func TestNewShardedPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded(0) did not panic")
		}
	}()
	NewSharded(0, DefaultAgentConfig())
}
