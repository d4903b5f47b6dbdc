package policy

import (
	"repro/internal/cache"
	"repro/internal/trace"
)

func init() {
	Register("rwp", func() Policy { return NewRWP() })
}

// RWP implements Read-Write Partitioning (Khan et al. [16], §II): the cache
// is dynamically partitioned into clean and dirty line populations to
// minimize read (demand load) misses. A sampled shadow study estimates how
// many read hits each partition size would capture; on a miss, the victim
// comes from whichever partition currently exceeds its predicted best
// size, LRU within the partition.
type RWP struct {
	ways int
	// predicted best number of dirty ways per set.
	dirtyTarget int
	// shadow counters: read reuses observed for clean and dirty lines at
	// each recency depth, from sampled sets.
	cleanHits  []uint64
	dirtyHits  []uint64
	accesses   uint64
	sampleMask uint32
}

// NewRWP returns a new Read-Write Partitioning policy.
func NewRWP() *RWP { return &RWP{} }

// Name implements Policy.
func (*RWP) Name() string { return "rwp" }

// Init implements Policy.
func (p *RWP) Init(cfg Config) {
	p.ways = cfg.Ways
	p.dirtyTarget = cfg.Ways / 2
	p.cleanHits = make([]uint64, cfg.Ways)
	p.dirtyHits = make([]uint64, cfg.Ways)
	p.accesses = 0
	p.sampleMask = 31 // 1-in-32 sets feed the shadow study
	if cfg.Sets < 64 {
		p.sampleMask = 0
	}
}

// Victim implements Policy: evict the LRU line of the over-budget
// partition; if the chosen partition is empty, fall back to global LRU.
func (p *RWP) Victim(ctx AccessCtx, set *cache.Set) int {
	dirty := 0
	for w := range set.Lines {
		if set.Lines[w].Dirty {
			dirty++
		}
	}
	evictDirty := dirty > p.dirtyTarget
	best := -1
	for w := range set.Lines {
		if set.Lines[w].Dirty != evictDirty {
			continue
		}
		if best < 0 || set.Lines[w].TouchedAt < set.Lines[best].TouchedAt {
			best = w
		}
	}
	if best >= 0 {
		return best
	}
	return set.LRUWay()
}

// Update implements Policy.
func (p *RWP) Update(ctx AccessCtx, set *cache.Set, way int, hit bool) {
	p.accesses++
	if hit && ctx.Type == trace.Load && ctx.SetIdx&p.sampleMask == 0 {
		// Record the read reuse against the line's pre-promotion stack
		// depth, bucketed by dirtiness: position k means "a partition of
		// k+1 ways of this kind would have captured this read hit".
		depth := p.ways - 1 - set.Recency(&set.Lines[way])
		if depth >= 0 && depth < p.ways {
			if set.Lines[way].Dirty {
				p.dirtyHits[depth]++
			} else {
				p.cleanHits[depth]++
			}
		}
	}
	if p.accesses%(1<<16) == 0 {
		p.repartition()
	}
}

// repartition picks the dirty-partition size maximizing predicted read
// hits: for each split (d dirty ways, ways−d clean), sum the reuses each
// sub-stack would have captured.
func (p *RWP) repartition() {
	bestD, bestHits := p.dirtyTarget, uint64(0)
	for d := 0; d <= p.ways; d++ {
		var hits uint64
		for k := 0; k < d; k++ {
			hits += p.dirtyHits[k]
		}
		for k := 0; k < p.ways-d; k++ {
			hits += p.cleanHits[k]
		}
		if hits > bestHits {
			bestHits, bestD = hits, d
		}
	}
	if bestHits == 0 {
		// Cold start with no read reuse observed: explore a smaller dirty
		// partition (write streams are the usual culprit for read thrash).
		if p.dirtyTarget > 1 {
			p.dirtyTarget--
		}
		return
	}
	p.dirtyTarget = bestD
	for i := range p.cleanHits {
		p.cleanHits[i] /= 2
		p.dirtyHits[i] /= 2
	}
}
