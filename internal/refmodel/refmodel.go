// Package refmodel holds slow, obviously-correct reference implementations
// of the core replacement policies, written straight from the source
// papers' pseudocode, plus a differential driver that replays a trace
// lock-step through a reference model and the production simulator and
// reports the first access where they disagree.
//
// The reference models deliberately share nothing with internal/policy or
// internal/cache beyond the trace record and the xrand PRNG (whose streams
// are part of the stochastic policies' specification): each model keeps its
// own tag store, its own recency/RRPV/SHCT state, and resolves every access
// end to end itself. Clarity beats speed everywhere — the Belady reference
// re-scans the remaining trace on every eviction rather than consulting an
// index. A divergence therefore implicates one side's semantics, not shared
// plumbing.
//
// Production policies seeded from the registry (random, brrip, drrip) are
// compared against references seeded with the same registry constants, so
// the dithered insertion streams line up access for access.
package refmodel

import (
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Step is what one access did in a reference model: the mirror of the
// production simulator's StepResult fields the differential compares.
type Step struct {
	Hit      bool
	Way      int // hit way or filled way; -1 when bypassed
	Bypassed bool
}

// Model is a reference implementation of one replacement policy. It owns
// its complete cache state and processes accesses end to end.
type Model interface {
	Name() string
	// Reset prepares the model for a fresh run over a cache of geometry cfg.
	Reset(cfg cache.Config)
	// Access resolves one access — probe, fill or bypass, metadata update —
	// and reports what happened.
	Access(a trace.Access) Step
}

// refCache is the minimal tag store the reference models share: which
// block sits in which way. Each model layers its own replacement state on
// top. Set index and block address use the plain quotient/remainder
// definitions; the production cache uses shift/mask forms of the same maps.
type refCache struct {
	sets, ways int
	lineSize   uint64
	block      [][]uint64 // [set][way] resident block address
	valid      [][]bool
}

func (c *refCache) reset(cfg cache.Config) {
	c.sets, c.ways, c.lineSize = cfg.Sets, cfg.Ways, cfg.LineSize
	c.block = make([][]uint64, cfg.Sets)
	c.valid = make([][]bool, cfg.Sets)
	for i := range c.block {
		c.block[i] = make([]uint64, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
	}
}

func (c *refCache) blockOf(addr uint64) uint64 { return addr / c.lineSize }

func (c *refCache) setOf(addr uint64) int {
	return int((addr / c.lineSize) % uint64(c.sets))
}

// find returns the way holding block in set, or -1.
func (c *refCache) find(set int, block uint64) int {
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.block[set][w] == block {
			return w
		}
	}
	return -1
}

// invalidWay returns the lowest invalid way of set, or -1 when full. This
// mirrors the framework's compulsory-fill rule (policies are only consulted
// for victims in full sets).
func (c *refCache) invalidWay(set int) int {
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			return w
		}
	}
	return -1
}

func (c *refCache) fill(set, way int, block uint64) {
	c.block[set][way] = block
	c.valid[set][way] = true
}

// --- LRU / MRU ---

// refRecency is LRU and MRU by a per-line last-use stamp from a global
// monotonic counter: the least recently used line holds the smallest stamp.
// Obviously correct, and never ambiguous — stamps are strictly increasing.
type refRecency struct {
	refCache
	mru     bool // evict the largest stamp instead of the smallest
	stamp   [][]uint64
	clock   uint64
	nameStr string
}

// NewLRU returns the reference LRU model.
func NewLRU() Model { return &refRecency{nameStr: "lru"} }

// NewMRU returns the reference MRU model.
func NewMRU() Model { return &refRecency{mru: true, nameStr: "mru"} }

func (m *refRecency) Name() string { return m.nameStr }

func (m *refRecency) Reset(cfg cache.Config) {
	m.reset(cfg)
	m.stamp = make([][]uint64, cfg.Sets)
	for i := range m.stamp {
		m.stamp[i] = make([]uint64, cfg.Ways)
	}
	m.clock = 0
}

func (m *refRecency) Access(a trace.Access) Step {
	m.clock++
	set := m.setOf(a.Addr)
	blk := m.blockOf(a.Addr)
	if w := m.find(set, blk); w >= 0 {
		m.stamp[set][w] = m.clock
		return Step{Hit: true, Way: w}
	}
	w := m.invalidWay(set)
	if w < 0 {
		w = 0
		for v := 1; v < m.ways; v++ {
			if m.mru {
				if m.stamp[set][v] > m.stamp[set][w] {
					w = v
				}
			} else if m.stamp[set][v] < m.stamp[set][w] {
				w = v
			}
		}
	}
	m.fill(set, w, blk)
	m.stamp[set][w] = m.clock
	return Step{Way: w}
}

// --- Random ---

// refRandom mirrors the random policy: the victim is rng.Intn(ways), with
// the PRNG consumed only when a victim is actually needed (full-set miss),
// exactly the points the production policy draws at.
type refRandom struct {
	refCache
	rng  *xrand.Rand
	seed uint64
}

// NewRandom returns the reference random-replacement model; seed must match
// the production instance's.
func NewRandom(seed uint64) Model { return &refRandom{seed: seed} }

func (m *refRandom) Name() string { return "random" }

func (m *refRandom) Reset(cfg cache.Config) {
	m.reset(cfg)
	m.rng = xrand.New(m.seed)
}

func (m *refRandom) Access(a trace.Access) Step {
	set := m.setOf(a.Addr)
	blk := m.blockOf(a.Addr)
	if w := m.find(set, blk); w >= 0 {
		return Step{Hit: true, Way: w}
	}
	w := m.invalidWay(set)
	if w < 0 {
		w = m.rng.Intn(m.ways)
	}
	m.fill(set, w, blk)
	return Step{Way: w}
}

// --- RRIP family ---

// Constants restated from Jaleel et al. [12]: 2-bit RRPVs, 10-bit PSEL,
// 1-in-32 bimodal dither, one duelling pair per 64 sets.
const (
	refRRPVMax   = 3
	refPSELMax   = 1023
	refPSELInit  = refPSELMax / 2
	refDuelGroup = 64
	refBimodal   = 32
)

// refRRIP implements SRRIP-HP, BRRIP, and DRRIP from the paper's
// pseudocode. mode selects the insertion policy; DRRIP layers set-dueling
// on top.
type refRRIP struct {
	refCache
	mode    string // "srrip", "brrip", "drrip"
	rrpv    [][]uint8
	rng     *xrand.Rand
	seed    uint64
	psel    int
	group   int // duelling group size (sets, capped at refDuelGroup)
	srripLd int // leader slot within a group dedicated to SRRIP insertion
	brripLd int // leader slot dedicated to BRRIP insertion; -1 disables dueling
}

// NewSRRIP returns the reference SRRIP model.
func NewSRRIP() Model { return &refRRIP{mode: "srrip"} }

// NewBRRIP returns the reference BRRIP model; seed must match production.
func NewBRRIP(seed uint64) Model { return &refRRIP{mode: "brrip", seed: seed} }

// NewDRRIP returns the reference DRRIP model; seed must match production.
func NewDRRIP(seed uint64) Model { return &refRRIP{mode: "drrip", seed: seed} }

func (m *refRRIP) Name() string { return m.mode }

func (m *refRRIP) Reset(cfg cache.Config) {
	m.reset(cfg)
	m.rrpv = make([][]uint8, cfg.Sets)
	for i := range m.rrpv {
		m.rrpv[i] = make([]uint8, cfg.Ways)
		for w := range m.rrpv[i] {
			m.rrpv[i][w] = refRRPVMax
		}
	}
	m.rng = xrand.New(m.seed)
	m.psel = refPSELInit
	m.group = refDuelGroup
	if cfg.Sets < m.group {
		m.group = cfg.Sets
	}
	// Leader slots: SRRIP at slot 0, BRRIP at the middle slot of the group
	// ((group-1)/2), resolving a collision toward the top slot. With one
	// set no distinct pair exists: dueling off, DRRIP degrades to SRRIP.
	// This slot assignment is part of this repo's DRRIP specification (the
	// RRIP paper leaves the choice of dedicated sets open).
	m.srripLd = 0
	m.brripLd = (m.group - 1) / 2
	if m.brripLd == m.srripLd {
		m.brripLd = m.group - 1
	}
	if m.brripLd == m.srripLd {
		m.brripLd = -1
	}
}

// leader classifies a set index: +1 SRRIP leader, -1 BRRIP leader, 0
// follower. Non-DRRIP modes have no leaders.
func (m *refRRIP) leader(set int) int {
	if m.mode != "drrip" || m.brripLd < 0 {
		return 0
	}
	switch set % m.group {
	case m.srripLd:
		return +1
	case m.brripLd:
		return -1
	}
	return 0
}

// bimodalInsert draws the BRRIP dither: mostly distant (RRPV max), 1/32
// long (max-1).
func (m *refRRIP) bimodalInsert() uint8 {
	if m.rng.Intn(refBimodal) == 0 {
		return refRRPVMax - 1
	}
	return refRRPVMax
}

func (m *refRRIP) Access(a trace.Access) Step {
	set := m.setOf(a.Addr)
	blk := m.blockOf(a.Addr)
	if w := m.find(set, blk); w >= 0 {
		m.rrpv[set][w] = 0 // hit promotion
		return Step{Hit: true, Way: w}
	}
	// Miss: PSEL voting (a miss in a leader set votes against its policy).
	switch m.leader(set) {
	case +1:
		if m.psel < refPSELMax {
			m.psel++
		}
	case -1:
		if m.psel > 0 {
			m.psel--
		}
	}
	w := m.invalidWay(set)
	if w < 0 {
		// SRRIP victim search: first way at distant RRPV, aging until found.
		for {
			found := -1
			for v := 0; v < m.ways; v++ {
				if m.rrpv[set][v] == refRRPVMax {
					found = v
					break
				}
			}
			if found >= 0 {
				w = found
				break
			}
			for v := 0; v < m.ways; v++ {
				m.rrpv[set][v]++
			}
		}
	}
	m.fill(set, w, blk)
	// Insertion RRPV by mode: SRRIP long (max-1); BRRIP bimodal; DRRIP per
	// leader class, followers by the PSEL MSB.
	useBRRIP := false
	switch m.mode {
	case "brrip":
		useBRRIP = true
	case "drrip":
		switch m.leader(set) {
		case +1:
			useBRRIP = false
		case -1:
			useBRRIP = true
		default:
			useBRRIP = m.psel >= refPSELInit+1 // MSB of the 10-bit counter
		}
	}
	if useBRRIP {
		m.rrpv[set][w] = m.bimodalInsert()
	} else {
		m.rrpv[set][w] = refRRPVMax - 1
	}
	return Step{Way: w}
}

// --- SHiP ---

// refSHiP implements SHiP-PC (Wu et al. [30]) over SRRIP from the paper's
// pseudocode: a 16K-entry table of 3-bit saturating counters indexed by a
// hashed PC signature; lines carry their inserting signature and an outcome
// bit; re-references train the counter up, evictions of never-reused lines
// train it down; zero-counter signatures insert at distant RRPV.
type refSHiP struct {
	refCache
	rrpv    [][]uint8
	sig     [][]uint32
	outcome [][]bool
	filled  [][]bool // the way has held a SHiP-tracked line at least once
	shct    []uint8
}

const (
	refSHCTEntries = 1 << 14
	refSHCTMax     = 7
	refSHCTInit    = 1
)

// NewSHiP returns the reference SHiP model.
func NewSHiP() Model { return &refSHiP{} }

func (m *refSHiP) Name() string { return "ship" }

func (m *refSHiP) Reset(cfg cache.Config) {
	m.reset(cfg)
	m.rrpv = make([][]uint8, cfg.Sets)
	m.sig = make([][]uint32, cfg.Sets)
	m.outcome = make([][]bool, cfg.Sets)
	m.filled = make([][]bool, cfg.Sets)
	for i := range m.rrpv {
		m.rrpv[i] = make([]uint8, cfg.Ways)
		m.sig[i] = make([]uint32, cfg.Ways)
		m.outcome[i] = make([]bool, cfg.Ways)
		m.filled[i] = make([]bool, cfg.Ways)
		for w := range m.rrpv[i] {
			m.rrpv[i][w] = refRRPVMax
		}
	}
	m.shct = make([]uint8, refSHCTEntries)
	for i := range m.shct {
		m.shct[i] = refSHCTInit
	}
}

// refSignature hashes a PC into the SHCT index space. The hash is part of
// the configuration being cross-checked, so it matches production's
// (xrand.Mix64 truncated and masked).
func refSignature(pc uint64) uint32 {
	return uint32(xrand.Mix64(pc)) & (refSHCTEntries - 1)
}

func (m *refSHiP) Access(a trace.Access) Step {
	set := m.setOf(a.Addr)
	blk := m.blockOf(a.Addr)
	if w := m.find(set, blk); w >= 0 {
		m.rrpv[set][w] = 0
		// Writeback hits carry no PC and say nothing about program reuse.
		if a.Type != trace.Writeback {
			m.outcome[set][w] = true
			if m.shct[m.sig[set][w]] < refSHCTMax {
				m.shct[m.sig[set][w]]++
			}
		}
		return Step{Hit: true, Way: w}
	}
	w := m.invalidWay(set)
	if w < 0 {
		// SRRIP victim search, then eviction-time SHCT training: a line
		// never re-referenced votes its signature down.
		for {
			found := -1
			for v := 0; v < m.ways; v++ {
				if m.rrpv[set][v] == refRRPVMax {
					found = v
					break
				}
			}
			if found >= 0 {
				w = found
				break
			}
			for v := 0; v < m.ways; v++ {
				m.rrpv[set][v]++
			}
		}
		if m.filled[set][w] && !m.outcome[set][w] && m.shct[m.sig[set][w]] > 0 {
			m.shct[m.sig[set][w]]--
		}
	}
	m.fill(set, w, blk)
	s := refSignature(a.PC)
	m.sig[set][w] = s
	m.outcome[set][w] = false
	m.filled[set][w] = true
	if m.shct[s] == 0 {
		m.rrpv[set][w] = refRRPVMax
	} else {
		m.rrpv[set][w] = refRRPVMax - 1
	}
	return Step{Way: w}
}

// --- Belady ---

// refBelady is MIN from first principles: it holds the whole trace and, on
// every eviction decision, scans forward from the current position to find
// each candidate's next reference. A resident block with no future
// reference is evicted immediately (keeping it can never help, and this
// mirrors the production policy's short-circuit to the lowest dead way).
// Otherwise the block referenced farthest in the future goes. With bypass
// enabled, the incoming block is a candidate too: if its own next use lies
// strictly beyond every resident block's, it is not cached.
type refBelady struct {
	refCache
	trace       []trace.Access
	pos         int // index of the access currently being processed
	allowBypass bool
}

// NewBelady returns the reference Belady model over its trace.
func NewBelady(tr []trace.Access, allowBypass bool) Model {
	return &refBelady{trace: tr, allowBypass: allowBypass}
}

func (m *refBelady) Name() string {
	if m.allowBypass {
		return "belady-bypass"
	}
	return "belady"
}

func (m *refBelady) Reset(cfg cache.Config) {
	m.reset(cfg)
	m.pos = 0
}

// nextUse scans the remaining trace for the first reference to block
// strictly after the current access, returning len(trace) when none exists
// (farther than any real reference).
func (m *refBelady) nextUse(block uint64) int {
	for i := m.pos + 1; i < len(m.trace); i++ {
		if m.blockOf(m.trace[i].Addr) == block {
			return i
		}
	}
	return len(m.trace)
}

func (m *refBelady) Access(a trace.Access) Step {
	defer func() { m.pos++ }()
	set := m.setOf(a.Addr)
	blk := m.blockOf(a.Addr)
	if w := m.find(set, blk); w >= 0 {
		return Step{Hit: true, Way: w}
	}
	w := m.invalidWay(set)
	if w < 0 {
		dead := -1
		best, bestNext := 0, -1
		for v := 0; v < m.ways; v++ {
			nu := m.nextUse(m.block[set][v])
			if nu == len(m.trace) {
				dead = v
				break
			}
			if nu > bestNext {
				best, bestNext = v, nu
			}
		}
		if dead >= 0 {
			w = dead
		} else {
			if m.allowBypass && m.nextUse(blk) > bestNext {
				return Step{Way: -1, Bypassed: true}
			}
			w = best
		}
	}
	m.fill(set, w, blk)
	return Step{Way: w}
}

// --- RLR ---

// RLR constants restated from §IV-A/§IV-C of the RLR paper: an age
// priority of weight 8, the predicted reuse distance RD = 2 × the mean
// age of demand hits, recomputed every 32 demand hits, and (optimized
// design) ages that advance once per 8 set misses.
const (
	refRLRAgeWeight   = 8
	refRLRMultiplier  = 2
	refRLRHitsPerRD   = 32
	refRLRMissesPerEp = 8
)

// refRLR is RLR from §IV-A. Every line carries an age counter, a hit
// counter, a type bit (its last access was a prefetch) and, for the
// unoptimized design, a last-use stamp for the recency tie-break. A line's
// priority is 8·[age ≤ RD] + [not prefetched] + hits; the victim is the
// lowest-priority line, ties going to the most recently used one. The
// optimized design (§IV-C) narrows ages to 2 bits that advance once per 8
// set misses, the hit counter to 1 bit, and approximates recency by age
// (lower age is more recent; equal ages keep the lower way). The
// unoptimized design has 5-bit ages that count every set access, a 2-bit
// hit counter, and true recency.
type refRLR struct {
	refCache
	name      string
	optimized bool
	useHit    bool // false: the §V-B ablation without the hit priority
	ageMax    int
	hitMax    int

	age    [][]int
	hits   [][]int
	pf     [][]bool
	used   [][]uint64 // last-use stamp; larger is more recent
	misses []int      // set misses since the last age epoch (optimized)
	clock  uint64

	rd, accum, demandHits int
}

// NewRLR returns the reference RLR model: the optimized design (§IV-C) or
// the unoptimized one (§V-B), with or without the hit priority.
func NewRLR(name string, optimized, useHit bool) Model {
	m := &refRLR{name: name, optimized: optimized, useHit: useHit, ageMax: 31, hitMax: 3}
	if optimized {
		m.ageMax, m.hitMax = 3, 1
	}
	return m
}

func (m *refRLR) Name() string { return m.name }

func (m *refRLR) Reset(cfg cache.Config) {
	m.reset(cfg)
	m.age = make([][]int, cfg.Sets)
	m.hits = make([][]int, cfg.Sets)
	m.pf = make([][]bool, cfg.Sets)
	m.used = make([][]uint64, cfg.Sets)
	for i := range m.age {
		m.age[i] = make([]int, cfg.Ways)
		m.hits[i] = make([]int, cfg.Ways)
		m.pf[i] = make([]bool, cfg.Ways)
		m.used[i] = make([]uint64, cfg.Ways)
	}
	m.misses = make([]int, cfg.Sets)
	m.clock = 0
	m.rd, m.accum, m.demandHits = 0, 0, 0
}

// ageSet advances every age counter of set by one, saturating.
func (m *refRLR) ageSet(set int) {
	for w := 0; w < m.ways; w++ {
		if m.age[set][w] < m.ageMax {
			m.age[set][w]++
		}
	}
}

// observe feeds one demand hit's age into the RD predictor: RD is the
// rounded mean of the last 32 such ages, times 2.
func (m *refRLR) observe(age int) {
	m.accum += age
	m.demandHits++
	if m.demandHits == refRLRHitsPerRD {
		m.rd = (m.accum*refRLRMultiplier + refRLRHitsPerRD/2) / refRLRHitsPerRD
		m.accum, m.demandHits = 0, 0
	}
}

func (m *refRLR) priority(set, w int) int {
	p := 0
	if m.age[set][w] <= m.rd {
		p += refRLRAgeWeight
	}
	if !m.pf[set][w] {
		p++
	}
	if m.useHit {
		p += m.hits[set][w]
	}
	return p
}

func (m *refRLR) moreRecent(set, a, b int) bool {
	if m.optimized {
		return m.age[set][a] < m.age[set][b]
	}
	return m.used[set][a] > m.used[set][b]
}

func (m *refRLR) Access(a trace.Access) Step {
	m.clock++
	set := m.setOf(a.Addr)
	blk := m.blockOf(a.Addr)
	if w := m.find(set, blk); w >= 0 {
		if a.Type.IsDemand() {
			m.observe(m.age[set][w]) // the hit's age is its preuse distance
		}
		if !m.optimized {
			m.ageSet(set)
		}
		m.age[set][w] = 0
		if m.hits[set][w] < m.hitMax {
			m.hits[set][w]++
		}
		if a.Type != trace.Prefetch {
			m.pf[set][w] = false
		}
		m.used[set][w] = m.clock
		return Step{Hit: true, Way: w}
	}
	w := m.invalidWay(set)
	if w < 0 {
		w = 0
		for v := 1; v < m.ways; v++ {
			pv, pw := m.priority(set, v), m.priority(set, w)
			if pv < pw || pv == pw && m.moreRecent(set, v, w) {
				w = v
			}
		}
	}
	if m.optimized {
		m.misses[set]++
		if m.misses[set] == refRLRMissesPerEp {
			m.misses[set] = 0
			m.ageSet(set)
		}
	} else {
		m.ageSet(set)
	}
	m.fill(set, w, blk)
	m.age[set][w], m.hits[set][w] = 0, 0
	m.pf[set][w] = a.Type == trace.Prefetch
	m.used[set][w] = m.clock
	return Step{Way: w}
}
