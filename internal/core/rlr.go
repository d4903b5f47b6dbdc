// Package core implements the paper's contribution: RLR, the Reinforcement
// Learned Replacement policy of §IV, in both its overhead-optimized form
// (16.75KB for a 2MB 16-way LLC) and the unoptimized form (40KB), plus the
// multicore extension of §IV-D and the ablation variants evaluated in §V-B.
//
// RLR is derived from four insights mined out of the RL agent (§III-B):
//
//  1. a line's future reuse distance can be approximated by its past reuse
//     (preuse) distance, aggregated across demand hits (RD = 2 × mean);
//  2. a line whose last access was a prefetch is unlikely to be reused —
//     evict non-reused prefetched lines sooner;
//  3. a line that has been hit is likely to be hit again;
//  4. when lines are otherwise equal, evict the most recently used one, so
//     older lines get the chance to reach their (equal) reuse distance.
//
// Each line is scored Pline = ageWeight·Page + Ptype + Phit (+ Pcore in
// multicore mode) and the lowest-priority line is evicted, with recency as
// the tie-break. The policy deliberately maintains its own counter state at
// the exact bit-widths of the hardware proposal rather than reading the
// simulator's full-precision metadata, so the optimized and unoptimized
// variants genuinely differ the way the paper's do.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

func init() {
	policy.Register("rlr", func() policy.Policy { return New(Optimized()) })
	policy.Register("rlr-unopt", func() policy.Policy { return New(Unoptimized()) })
	policy.Register("rlr-mc", func() policy.Policy {
		o := Optimized()
		o.Multicore = true
		return New(o)
	})
}

// Options configures an RLR instance. The zero value is not useful;
// construct with Optimized or Unoptimized and tweak.
type Options struct {
	// AgeBits is the per-line age counter width (2 optimized, 5 unoptimized).
	AgeBits int
	// MissesPerEpoch is how many set misses advance line ages by one in the
	// optimized design (8). 0 means ages count every set access directly
	// (the unoptimized design).
	MissesPerEpoch int
	// HitBits is the per-line hit counter width (1 optimized, 2 unoptimized).
	HitBits int
	// AgeWeight is the weight of the age priority in the weighted sum (8).
	AgeWeight int
	// RDMultiplier scales the mean preuse distance into the predicted reuse
	// distance (2 in the paper; ablation abl2 sweeps it).
	RDMultiplier int
	// HitsPerRDUpdate is the demand-hit count between RD recomputations (32).
	HitsPerRDUpdate int
	// ClampRD bounds the RD register to the age comparator's range
	// [1, ageMax−1], the behaviour of a hardware RD register as wide as the
	// age counter: with RD below 1 no line is ever protected, and with RD at
	// or above the age saturation point no line ever expires — both collapse
	// the age priority entirely.
	ClampRD bool
	// UseHitPriority / UseTypePriority disable Phit / Ptype for the §V-B
	// ablation when false.
	UseHitPriority  bool
	UseTypePriority bool
	// ApproxRecency uses the age counter as the recency tie-break (the
	// optimized design); false uses a full recency stack.
	ApproxRecency bool
	// AllowBypass enables the optional bypass mode: when every line's age
	// is still within RD, the request is not cached.
	AllowBypass bool
	// Multicore enables the §IV-D per-core priority term.
	Multicore bool
	// AccessesPerCoreUpdate is the LLC-access interval between core-priority
	// re-rankings (2000).
	AccessesPerCoreUpdate int
}

// Optimized returns the paper's final 16.75KB configuration (§IV-C): 2-bit
// age counters advancing once per 8 set misses, 1-bit hit and type
// registers, and age-approximated recency.
func Optimized() Options {
	return Options{
		AgeBits:               2,
		MissesPerEpoch:        8,
		HitBits:               1,
		AgeWeight:             8,
		RDMultiplier:          2,
		HitsPerRDUpdate:       32,
		UseHitPriority:        true,
		UseTypePriority:       true,
		ApproxRecency:         true,
		AccessesPerCoreUpdate: 2000,
	}
}

// Unoptimized returns the pre-optimization 40KB configuration (§V-B):
// 5-bit age counters counting every set access, a 2-bit hit counter, and a
// true recency stack.
func Unoptimized() Options {
	o := Optimized()
	o.AgeBits = 5
	o.MissesPerEpoch = 0
	o.HitBits = 2
	o.ApproxRecency = false
	return o
}

// rlrLine is the per-line hardware state of Figure 8/9.
type rlrLine struct {
	age     uint32 // AgeBits-wide saturating counter
	hits    uint8  // HitBits-wide saturating counter
	typePF  bool   // Type Register: last access was a prefetch
	recency uint8  // only maintained when !ApproxRecency
}

// RLR implements policy.Policy.
type RLR struct {
	opt  Options
	cfg  policy.Config
	name string

	lines [][]rlrLine
	// epoch is the per-set 3-bit miss counter of the optimized design.
	epoch []uint8

	// RD predictor state (Figure 9): the accumulator sums the age-counter
	// values of demand hits; every HitsPerRDUpdate hits, RD is recomputed.
	rd        uint32
	accum     uint64
	hitCount  int
	ageMax    uint32
	hitMax    uint8
	epochMask uint8

	// Multicore extension (§IV-D).
	coreHits  []uint64
	corePrio  []int
	accessCnt uint64
}

// New returns an RLR instance with the given options. It panics on
// obviously invalid options (zero widths), which are programming errors.
func New(opt Options) *RLR {
	if opt.AgeBits <= 0 || opt.AgeBits > 30 {
		panic(fmt.Sprintf("core: invalid AgeBits %d", opt.AgeBits))
	}
	if opt.HitBits <= 0 || opt.HitBits > 8 {
		panic(fmt.Sprintf("core: invalid HitBits %d", opt.HitBits))
	}
	if opt.HitsPerRDUpdate <= 0 {
		panic("core: HitsPerRDUpdate must be positive")
	}
	if opt.AccessesPerCoreUpdate <= 0 {
		opt.AccessesPerCoreUpdate = 2000
	}
	name := "rlr"
	switch {
	case opt.Multicore:
		name = "rlr-mc"
	case opt.MissesPerEpoch == 0:
		name = "rlr-unopt"
	}
	return &RLR{opt: opt, name: name}
}

// Name implements policy.Policy.
func (p *RLR) Name() string { return p.name }

// Init implements policy.Policy.
func (p *RLR) Init(cfg policy.Config) {
	p.cfg = cfg
	p.lines = make([][]rlrLine, cfg.Sets)
	for i := range p.lines {
		p.lines[i] = make([]rlrLine, cfg.Ways)
		for w := range p.lines[i] {
			p.lines[i][w].recency = uint8(w)
		}
	}
	p.epoch = make([]uint8, cfg.Sets)
	p.ageMax = (1 << uint(p.opt.AgeBits)) - 1
	p.hitMax = uint8(1<<uint(p.opt.HitBits)) - 1
	if p.opt.MissesPerEpoch > 0 {
		p.epochMask = uint8(p.opt.MissesPerEpoch - 1)
	}
	p.rd = 0
	p.accum, p.hitCount = 0, 0
	n := cfg.NumCores
	if n < 1 {
		n = 1
	}
	p.coreHits = make([]uint64, n)
	p.corePrio = make([]int, n)
	p.accessCnt = 0
}

// priority computes Pline for one way.
func (p *RLR) priority(setIdx uint32, way int) int {
	ln := &p.lines[setIdx][way]
	prio := 0
	if ln.age <= p.rd {
		prio += p.opt.AgeWeight // Page = 1, weighted
	}
	if p.opt.UseTypePriority && !ln.typePF {
		prio++ // Ptype = 1 for non-prefetch last access
	}
	if p.opt.UseHitPriority {
		prio += int(ln.hits) // Phit (0/1 optimized; 0..3 unoptimized)
	}
	// Pcore (multicore mode) is added by Victim, which can read the line's
	// core tag from the set metadata.
	return prio
}

// Victim implements policy.Policy: evict the lowest-priority line, breaking
// ties toward the most recently used line (§IV-A).
func (p *RLR) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	if p.opt.AllowBypass && ctx.Type != trace.Writeback {
		anyExpired := false
		for w := range p.lines[ctx.SetIdx] {
			if p.lines[ctx.SetIdx][w].age > p.rd {
				anyExpired = true
				break
			}
		}
		if !anyExpired {
			// Bypassed misses never reach Update, so the set's miss-driven
			// aging must advance here or no line would ever expire and the
			// set would bypass forever.
			p.ageOnMiss(ctx.SetIdx)
			return policy.Bypass
		}
	}
	best := 0
	bestPrio := 1 << 30
	for w := range p.lines[ctx.SetIdx] {
		prio := p.priority(ctx.SetIdx, w)
		if p.opt.Multicore {
			prio += p.corePrio[int(set.Lines[w].Core)%len(p.corePrio)]
		}
		switch {
		case prio < bestPrio:
			best, bestPrio = w, prio
		case prio == bestPrio && p.moreRecent(ctx.SetIdx, w, best):
			best = w
		}
	}
	return best
}

// moreRecent reports whether way a was accessed more recently than way b,
// using the optimized design's age approximation or the true recency stack.
func (p *RLR) moreRecent(setIdx uint32, a, b int) bool {
	la, lb := &p.lines[setIdx][a], &p.lines[setIdx][b]
	if p.opt.ApproxRecency {
		// Lower age ⇒ more recent; equal ages break toward the lower way
		// index, which means "do not replace the current best" here.
		return la.age < lb.age
	}
	return la.recency > lb.recency
}

// Update implements policy.Policy.
func (p *RLR) Update(ctx policy.AccessCtx, set *cache.Set, way int, hit bool) {
	p.accessCnt++
	row := p.lines[ctx.SetIdx]

	if hit {
		ln := &row[way]
		if p.opt.MissesPerEpoch == 0 {
			// Unoptimized: ages count set accesses; the hit line's current
			// age is its preuse distance.
			if ctx.Type.IsDemand() {
				p.observePreuse(ln.age)
			}
			for w := range row {
				if row[w].age < p.ageMax {
					row[w].age++
				}
			}
		} else if ctx.Type.IsDemand() {
			// Optimized: ages only advance on miss epochs; the quantized
			// age at hit time is what the accumulator receives (Figure 9).
			p.observePreuse(ln.age)
		}
		ln.age = 0
		if ln.hits < p.hitMax {
			ln.hits++
		}
		// Type Register semantics follow §IV-A's priority definition: it
		// flags lines "inserted by a prefetch access [that have not] been
		// reused after insertion". A demand or writeback access clears it;
		// a prefetch hit leaves it unchanged — a redundant prefetch touching
		// a demand-resident line does not turn that line into a non-reused
		// prefetch.
		if ctx.Type != trace.Prefetch {
			ln.typePF = false
		}
		p.promote(ctx.SetIdx, way)
		if p.opt.Multicore && ctx.Type.IsDemand() {
			p.coreHits[int(ctx.Core)%len(p.coreHits)]++
		}
	} else {
		// Fill (every non-bypassed miss).
		p.ageOnMiss(ctx.SetIdx)
		row[way] = rlrLine{
			typePF:  ctx.Type == trace.Prefetch,
			recency: row[way].recency,
		}
		p.promote(ctx.SetIdx, way)
	}

	if p.opt.Multicore && p.accessCnt%uint64(p.opt.AccessesPerCoreUpdate) == 0 {
		p.rerankCores()
	}
}

// ageOnMiss advances the per-set aging state for one miss: directly for
// the unoptimized design (ages count set accesses), via the 3-bit epoch
// counter for the optimized design (ages advance every MissesPerEpoch set
// misses).
func (p *RLR) ageOnMiss(setIdx uint32) {
	row := p.lines[setIdx]
	if p.opt.MissesPerEpoch == 0 {
		for w := range row {
			if row[w].age < p.ageMax {
				row[w].age++
			}
		}
		return
	}
	p.epoch[setIdx]++
	if p.epoch[setIdx]&p.epochMask == 0 {
		p.epoch[setIdx] = 0
		for w := range row {
			if row[w].age < p.ageMax {
				row[w].age++
			}
		}
	}
}

// promote maintains the true recency stack for the unoptimized design.
func (p *RLR) promote(setIdx uint32, way int) {
	if p.opt.ApproxRecency {
		return
	}
	row := p.lines[setIdx]
	old := row[way].recency
	for w := range row {
		if row[w].recency > old {
			row[w].recency--
		}
	}
	row[way].recency = uint8(len(row) - 1)
}

// observePreuse feeds one demand-hit preuse observation into the RD
// predictor and recomputes RD every HitsPerRDUpdate observations:
// RD = RDMultiplier × mean(preuse).
func (p *RLR) observePreuse(age uint32) {
	p.accum += uint64(age)
	p.hitCount++
	if p.hitCount >= p.opt.HitsPerRDUpdate {
		// Round-to-nearest average (in hardware: add half the divisor
		// before the right shift). Truncation systematically under-protects
		// when the mean sits just below an integer boundary.
		n := uint64(p.opt.HitsPerRDUpdate)
		p.rd = uint32((p.accum*uint64(p.opt.RDMultiplier) + n/2) / n)
		if p.opt.ClampRD {
			if p.rd < 1 {
				p.rd = 1
			}
			if p.rd > p.ageMax-1 {
				p.rd = p.ageMax - 1
			}
		}
		p.accum, p.hitCount = 0, 0
	}
}

// rerankCores assigns Pcore levels 0..3 by demand-hit rank (§IV-D): the
// core with the most demand hits gets the highest priority, so its lines
// are retained preferentially.
func (p *RLR) rerankCores() {
	n := len(p.coreHits)
	if n == 1 {
		return
	}
	// Rank by hits; with ≤4 cores a simple selection is clear and cheap.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.coreHits[order[j]] > p.coreHits[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	levels := n - 1
	if levels > 3 {
		levels = 3 // 2-bit Pcore
	}
	for rank, c := range order {
		lv := levels - rank
		if lv < 0 {
			lv = 0
		}
		p.corePrio[c] = lv
	}
	for i := range p.coreHits {
		p.coreHits[i] /= 2 // decay so phase changes re-rank
	}
}
