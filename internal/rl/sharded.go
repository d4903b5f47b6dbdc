package rl

import (
	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
)

// Sharded implements the multi-agent option the paper mentions in §III-A:
// "Designers can choose to use multiple agents by training them using
// different combination of cache sets." It partitions the sets across N
// independent agents (set index modulo N), each learning its own policy
// for its shard of the access stream.
type Sharded struct {
	agents []*Agent
	n      uint32
}

// NewSharded builds n agents with the given configuration; agent i gets a
// distinct seed derived from cfg.Seed.
func NewSharded(n int, cfg AgentConfig) *Sharded {
	if n <= 0 {
		panic("rl: NewSharded needs a positive shard count")
	}
	s := &Sharded{n: uint32(n)}
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed*1_000_003 + uint64(i)
		s.agents = append(s.agents, NewAgent(c))
	}
	return s
}

// Agents exposes the underlying shards (for per-shard analysis).
func (s *Sharded) Agents() []*Agent { return s.agents }

func (s *Sharded) shard(setIdx uint32) *Agent { return s.agents[setIdx%s.n] }

// SetSim attaches the simulator to every shard.
func (s *Sharded) SetSim(sim *cachesim.Simulator) {
	for _, a := range s.agents {
		a.SetSim(sim)
	}
}

// SetTraining toggles learning on every shard.
func (s *Sharded) SetTraining(on bool) {
	for _, a := range s.agents {
		a.SetTraining(on)
	}
}

// SetInt8 toggles frozen int8 inference on every shard.
func (s *Sharded) SetInt8(on bool) {
	for _, a := range s.agents {
		a.SetInt8(on)
	}
}

// Name implements policy.Policy.
func (*Sharded) Name() string { return "rl-sharded" }

// Init implements policy.Policy.
func (s *Sharded) Init(cfg policy.Config) {
	for _, a := range s.agents {
		a.Init(cfg)
	}
}

// Victim implements policy.Policy by delegating to the set's shard.
func (s *Sharded) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	return s.shard(ctx.SetIdx).Victim(ctx, set)
}

// Update implements policy.Policy.
func (s *Sharded) Update(ctx policy.AccessCtx, set *cache.Set, way int, hit bool) {
	s.shard(ctx.SetIdx).Update(ctx, set, way, hit)
}

var _ policy.Policy = (*Sharded)(nil)
