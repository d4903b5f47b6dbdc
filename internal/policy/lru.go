package policy

import (
	"repro/internal/cache"
	"repro/internal/xrand"
)

func init() {
	Register("lru", func() Policy { return new(LRU) })
	Register("random", func() Policy { return NewRandom(1) })
	Register("mru", func() Policy { return new(MRU) })
}

// LRU evicts the least recently used line. It reads the framework-
// maintained recency order, which is exactly the log2(ways)-per-line
// recency stack a hardware LRU would keep (16KB for a 2MB 16-way LLC,
// Table I).
type LRU struct{}

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// Init implements Policy.
func (*LRU) Init(Config) {}

// Victim implements Policy: the line with recency 0 is evicted.
func (*LRU) Victim(_ AccessCtx, set *cache.Set) int { return set.LRUWay() }

// Update implements Policy. The framework's recency maintenance is the
// entire policy, so there is nothing to do.
func (*LRU) Update(AccessCtx, *cache.Set, int, bool) {}

// MRU evicts the most recently used line. It exists as a sanity baseline:
// on scanning workloads it can beat LRU, and tests use it to confirm the
// simulator honours victim choices.
type MRU struct{}

// Name implements Policy.
func (*MRU) Name() string { return "mru" }

// Init implements Policy.
func (*MRU) Init(Config) {}

// Victim implements Policy.
func (*MRU) Victim(_ AccessCtx, set *cache.Set) int {
	best := 0
	for w := 1; w < len(set.Lines); w++ {
		if set.Lines[w].TouchedAt > set.Lines[best].TouchedAt {
			best = w
		}
	}
	return best
}

// Update implements Policy.
func (*MRU) Update(AccessCtx, *cache.Set, int, bool) {}

// Random evicts a uniformly random line; deterministic given its seed.
type Random struct {
	rng *xrand.Rand
}

// NewRandom returns a Random policy seeded with seed.
func NewRandom(seed uint64) *Random {
	return &Random{rng: xrand.New(seed)}
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Init implements Policy.
func (r *Random) Init(Config) {
	if r.rng == nil {
		r.rng = xrand.New(1)
	}
}

// Victim implements Policy.
func (r *Random) Victim(_ AccessCtx, set *cache.Set) int {
	return r.rng.Intn(len(set.Lines))
}

// Update implements Policy.
func (*Random) Update(AccessCtx, *cache.Set, int, bool) {}
