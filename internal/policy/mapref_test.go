package policy

import (
	"sort"

	"repro/internal/cache"
)

// BeladyMapRef is the pre-chain Belady implementation: every victim scan
// looks up each resident block's next use in a per-block position list
// with a binary search. It is the equivalence baseline for the
// chain-driven Belady (the property tests assert identical statistics)
// and lives only in the tests. It keeps its own position index, built
// from the oracle's block column, and never touches the oracle's cursor.
type BeladyMapRef struct {
	shift       uint
	positions   map[uint64][]uint64 // block → sorted access indices
	AllowBypass bool
}

// NewBeladyMapRef wraps an oracle's trace in the map-based reference replay.
func NewBeladyMapRef(o *Oracle) *BeladyMapRef {
	positions := make(map[uint64][]uint64)
	for i, b := range o.blocks {
		positions[b] = append(positions[b], uint64(i))
	}
	return &BeladyMapRef{shift: o.shift, positions: positions}
}

// NewBeladyMapRefBypass is NewBeladyMapRef with bypass enabled.
func NewBeladyMapRefBypass(o *Oracle) *BeladyMapRef {
	p := NewBeladyMapRef(o)
	p.AllowBypass = true
	return p
}

// nextUse returns block's first reference strictly after seq, or NeverUsed.
func (p *BeladyMapRef) nextUse(block, seq uint64) uint64 {
	pos := p.positions[block]
	i := sort.Search(len(pos), func(i int) bool { return pos[i] > seq })
	if i == len(pos) {
		return NeverUsed
	}
	return pos[i]
}

// Name implements Policy.
func (p *BeladyMapRef) Name() string { return "belady-mapref" }

// Init implements Policy.
func (p *BeladyMapRef) Init(Config) {}

// Victim implements Policy with per-way map+search next-use queries.
func (p *BeladyMapRef) Victim(ctx AccessCtx, set *cache.Set) int {
	best, bestNext := 0, uint64(0)
	for w := range set.Lines {
		nu := p.nextUse(set.Lines[w].Block, ctx.Seq)
		if nu > bestNext {
			best, bestNext = w, nu
		}
		if nu == NeverUsed {
			return w
		}
	}
	if p.AllowBypass {
		if own := p.nextUse(ctx.Addr>>p.shift, ctx.Seq); own > bestNext {
			return Bypass
		}
	}
	return best
}

// Update implements Policy. BeladyMapRef is stateless beyond its index.
func (*BeladyMapRef) Update(AccessCtx, *cache.Set, int, bool) {}
