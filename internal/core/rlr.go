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
	typePF  uint8  // Type Register: 1 when the last access was a prefetch
	recency uint8  // only maintained when !ApproxRecency
	core    uint8  // core of the last access (§IV-D), as cache.Line.Core
}

// RLR implements policy.Policy.
type RLR struct {
	opt  Options
	name string

	// lines is the sets×ways state slab: way w of set s is lines[s*ways+w].
	lines []rlrLine
	ways  int
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

	// Victim's key terms, fixed by Init from the option switches: the age
	// weight, and all-ones or zero masks for Ptype, Phit and the tie rank's
	// source (ones: age; zero: the recency stack).
	ageW, typeMask, hitMask, ageTieMask uint64

	// Multicore extension (§IV-D). corePrio holds Pcore per core ID (the
	// core-hit rank of ID mod NumCores); it stays zero outside multicore
	// mode, so Victim adds it unconditionally.
	coreHits  []uint64
	corePrio  [256]uint64
	accessCnt uint64
}

// maxAgeWeight bounds AgeWeight so that a line's priority fits the 24 bits
// Victim's key gives it.
const maxAgeWeight = 1 << 20

// New returns an RLR instance with the given options. It panics on
// obviously invalid options (zero widths, an age weight outside
// [0, 2^20]), which are programming errors.
func New(opt Options) *RLR {
	if opt.AgeBits <= 0 || opt.AgeBits > 30 {
		panic(fmt.Sprintf("core: invalid AgeBits %d", opt.AgeBits))
	}
	if opt.HitBits <= 0 || opt.HitBits > 8 {
		panic(fmt.Sprintf("core: invalid HitBits %d", opt.HitBits))
	}
	if opt.AgeWeight < 0 || opt.AgeWeight > maxAgeWeight {
		panic(fmt.Sprintf("core: invalid AgeWeight %d", opt.AgeWeight))
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

// mask returns all ones when on, else zero.
func mask(on bool) uint64 {
	if on {
		return ^uint64(0)
	}
	return 0
}

// Init implements policy.Policy.
func (p *RLR) Init(cfg policy.Config) {
	if cfg.Ways > 256 {
		panic(fmt.Sprintf("core: RLR supports at most 256 ways, got %d", cfg.Ways))
	}
	p.ways = cfg.Ways
	p.lines = make([]rlrLine, cfg.Sets*cfg.Ways)
	for i := range p.lines {
		p.lines[i].recency = uint8(i % cfg.Ways)
	}
	p.epoch = make([]uint8, cfg.Sets)
	p.ageMax = (1 << uint(p.opt.AgeBits)) - 1
	p.hitMax = uint8(1<<uint(p.opt.HitBits)) - 1
	if p.opt.MissesPerEpoch > 0 {
		p.epochMask = uint8(p.opt.MissesPerEpoch - 1)
	}
	p.rd = 0
	p.accum, p.hitCount = 0, 0
	p.ageW = uint64(p.opt.AgeWeight)
	p.typeMask = mask(p.opt.UseTypePriority)
	p.hitMask = mask(p.opt.UseHitPriority)
	p.ageTieMask = mask(p.opt.ApproxRecency)
	n := cfg.NumCores
	if n < 1 {
		n = 1
	}
	p.coreHits = make([]uint64, n)
	p.corePrio = [256]uint64{}
	p.accessCnt = 0
}

// row returns the state of one set's ways.
func (p *RLR) row(setIdx uint32) []rlrLine {
	base := int(setIdx) * p.ways
	return p.lines[base : base+p.ways]
}

// Victim implements policy.Policy: evict the lowest-priority line, breaking
// ties toward the most recently used line (§IV-A). Like the hardware
// comparator, it takes one minimum over per-way keys
//
//	Pline<<40 | tieRank<<8 | way
//
// where Pline = AgeWeight·Page + Ptype + Phit + Pcore and tieRank is the
// age (optimized: lower age is more recent) or ways−1−recency. Equal
// priorities and ranks go to the lower way.
func (p *RLR) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	rd, maxRec := uint64(p.rd), uint64(p.ways-1)
	ageW, typeMask, hitMask, ageTie := p.ageW, p.typeMask, p.hitMask, p.ageTieMask
	best, expired := ^uint64(0), uint64(0)
	row := p.row(ctx.SetIdx)
	for w := range row {
		ln := &row[w]
		age := uint64(ln.age)
		old := (rd - age) >> 63 // 1 when age > RD: Page = 0
		expired |= old
		prio := (old-1)&ageW +
			(1^uint64(ln.typePF))&typeMask +
			uint64(ln.hits)&hitMask +
			p.corePrio[ln.core]
		rank := age&ageTie + (maxRec-uint64(ln.recency))&^ageTie
		best = min(best, prio<<40|rank<<8|uint64(w))
	}
	if p.opt.AllowBypass && ctx.Type != trace.Writeback && expired == 0 {
		// Bypassed misses never reach Update, so the set's miss-driven
		// aging must advance here or no line would ever expire and the
		// set would bypass forever.
		p.ageOnMiss(ctx.SetIdx)
		return policy.Bypass
	}
	return int(best & 0xff)
}

// Update implements policy.Policy.
func (p *RLR) Update(ctx policy.AccessCtx, set *cache.Set, way int, hit bool) {
	p.accessCnt++
	row := p.row(ctx.SetIdx)

	if hit {
		ln := &row[way]
		if p.opt.MissesPerEpoch == 0 {
			// Unoptimized: ages count set accesses; the hit line's current
			// age is its preuse distance.
			if ctx.Type.IsDemand() {
				p.observePreuse(ln.age)
			}
			p.ageRow(row)
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
			ln.typePF = 0
		}
		ln.core = ctx.Core
		p.promote(row, way)
		if p.opt.Multicore && ctx.Type.IsDemand() {
			p.coreHits[int(ctx.Core)%len(p.coreHits)]++
		}
	} else {
		// Fill (every non-bypassed miss).
		p.ageOnMiss(ctx.SetIdx)
		row[way] = rlrLine{
			recency: row[way].recency,
			core:    ctx.Core,
		}
		if ctx.Type == trace.Prefetch {
			row[way].typePF = 1
		}
		p.promote(row, way)
	}

	if p.opt.Multicore && p.accessCnt%uint64(p.opt.AccessesPerCoreUpdate) == 0 {
		p.rerankCores()
	}
}

// ageRow advances every age counter of one set, saturating at ageMax.
func (p *RLR) ageRow(row []rlrLine) {
	for w := range row {
		if row[w].age < p.ageMax {
			row[w].age++
		}
	}
}

// ageOnMiss advances the per-set aging state for one miss: directly for
// the unoptimized design (ages count set accesses), via the 3-bit epoch
// counter for the optimized design (ages advance every MissesPerEpoch set
// misses).
func (p *RLR) ageOnMiss(setIdx uint32) {
	if p.opt.MissesPerEpoch == 0 {
		p.ageRow(p.row(setIdx))
		return
	}
	p.epoch[setIdx]++
	if p.epoch[setIdx]&p.epochMask == 0 {
		p.epoch[setIdx] = 0
		p.ageRow(p.row(setIdx))
	}
}

// promote maintains the true recency stack for the unoptimized design.
func (p *RLR) promote(row []rlrLine, way int) {
	if p.opt.ApproxRecency {
		return
	}
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
	levels := min(n-1, 3) // 2-bit Pcore
	for rank, c := range order {
		p.corePrio[c] = uint64(max(levels-rank, 0))
	}
	for c := n; c < len(p.corePrio); c++ {
		p.corePrio[c] = p.corePrio[c%n] // core IDs alias mod NumCores
	}
	for i := range p.coreHits {
		p.coreHits[i] /= 2 // decay so phase changes re-rank
	}
}
