package policy

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func init() {
	Register("hawkeye", func() Policy { return NewHawkeye() })
}

// Hawkeye parameters (Jain & Lin [11], CRC2 configuration).
const (
	hkPredEntries = 1 << 13 // 8K-entry PC predictor
	hkPredMax     = 7       // 3-bit counters
	hkPredInit    = 4       // start weakly cache-friendly
	hkRRIPMax     = 7       // 3-bit per-line RRIP
	hkSampleSets  = 64      // sampled sets feeding OPTgen
	hkHistoryMult = 8       // OPTgen window: 8 × associativity set accesses
)

// optGenSet is the per-sampled-set OPT simulator: a sliding occupancy
// vector over the last window set accesses plus a usage-interval sampler.
// An access whose liveness interval fits under capacity everywhere would
// have hit under Belady; Hawkeye trains its PC predictor on that signal.
//
// The sampler remembers the time and PC of each block's latest access,
// but only within the window: an older access could give no verdict, as
// its interval would not fit. A ring holds the block and PC of each of
// the last window accesses, and an open-addressed table (linear probing,
// at most half full) maps each block to the ring slot of its latest
// access. When the quantum of an access reopens, window accesses later,
// the block's entry is deleted unless the block was accessed again since,
// so the table holds at most window entries and never allocates.
type optGenSet struct {
	occupancy []uint16    // circular, indexed by time % window
	ring      []optSample // circular: the access at each time % window
	slots     []uint16    // ring index+1 of a block's latest access; 0 = empty
	shift     uint        // 64 - log2(len(slots)), for Fibonacci hashing
	live      int         // occupied slots
	time      uint64
	window    uint64
	capacity  uint16
}

type optSample struct {
	block uint64
	pc    uint64
}

// newOptGenSets returns n samplers for a set of the given ways, their
// vectors carved from three shared slabs.
func newOptGenSets(n, ways int) []optGenSet {
	w := ways * hkHistoryMult
	nslots := 1
	for nslots < 2*w {
		nslots <<= 1
	}
	occupancy := make([]uint16, n*w)
	ring := make([]optSample, n*w)
	slots := make([]uint16, n*nslots)
	gens := make([]optGenSet, n)
	for i := range gens {
		gens[i] = optGenSet{
			occupancy: occupancy[i*w : (i+1)*w : (i+1)*w],
			ring:      ring[i*w : (i+1)*w : (i+1)*w],
			slots:     slots[i*nslots : (i+1)*nslots : (i+1)*nslots],
			shift:     uint(64 - bits.TrailingZeros(uint(nslots))),
			window:    uint64(w),
			capacity:  uint16(ways),
		}
	}
	return gens
}

// home returns block's first probe slot.
func (o *optGenSet) home(block uint64) int {
	return int((block * 0x9E3779B97F4A7C15) >> o.shift)
}

// find returns the slot holding block and true, or the empty slot where
// its probe sequence ends and false.
func (o *optGenSet) find(block uint64) (int, bool) {
	mask := len(o.slots) - 1
	for i := o.home(block); ; i = (i + 1) & mask {
		v := o.slots[i]
		if v == 0 {
			return i, false
		}
		if o.ring[v-1].block == block {
			return i, true
		}
	}
}

// remove empties slot i and shifts back the entries after it that probed
// past it, so every entry stays reachable from its home slot.
func (o *optGenSet) remove(i int) {
	mask := len(o.slots) - 1
	for j := (i + 1) & mask; o.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		h := o.home(o.ring[o.slots[j]-1].block)
		if (j-h)&mask >= (j-i)&mask {
			o.slots[i] = o.slots[j]
			i = j
		}
	}
	o.slots[i] = 0
	o.live--
}

// access advances OPTgen one step for block/pc and reports whether the
// previous occurrence of block would have hit under OPT, together with the
// PC that brought it in (the PC to train). trainable is false for the first
// occurrence or when the previous one fell out of the window.
func (o *optGenSet) access(block, pc uint64) (optHit bool, trainPC uint64, trainable bool) {
	now := o.time
	o.time++
	pos := now % o.window
	o.occupancy[pos] = 0 // open the new quantum
	if now >= o.window {
		// The access at now-window leaves the window: its entry goes,
		// unless its block was accessed again since.
		if i, ok := o.find(o.ring[pos].block); ok && uint64(o.slots[i]) == pos+1 {
			o.remove(i)
		}
	}

	i, seen := o.find(block)
	if seen {
		// Every entry is from the last window-1 accesses, so the previous
		// access is the one in the window whose ring index is prevPos.
		prevPos := uint64(o.slots[i] - 1)
		prevTime := now - (pos+o.window-prevPos)%o.window
		trainable = true
		trainPC = o.ring[prevPos].pc
		optHit = true
		for t := prevTime; t < now; t++ {
			if o.occupancy[t%o.window] >= o.capacity {
				optHit = false
				break
			}
		}
		if optHit {
			for t := prevTime; t < now; t++ {
				o.occupancy[t%o.window]++
			}
		}
	} else {
		o.live++
	}
	o.slots[i] = uint16(pos + 1)
	o.ring[pos] = optSample{block: block, pc: pc}
	return optHit, trainPC, trainable
}

// check verifies the sampler's table against its ring: at most window
// live entries, each reachable from its home slot, and exactly one per
// distinct block of the window, pointing at the block's latest access.
func (o *optGenSet) check() error {
	if o.live > int(o.window) {
		return fmt.Errorf("%d live entries exceed the window of %d", o.live, o.window)
	}
	n := 0
	for i, v := range o.slots {
		if v == 0 {
			continue
		}
		n++
		if uint64(v) > min(o.window, o.time) {
			return fmt.Errorf("slot %d points at ring index %d, which holds no access of the window", i, v-1)
		}
		if j, ok := o.find(o.ring[v-1].block); !ok || j != i {
			return fmt.Errorf("slot %d (block %#x) is not reachable from its home slot", i, o.ring[v-1].block)
		}
	}
	if n != o.live {
		return fmt.Errorf("%d occupied slots, live count %d", n, o.live)
	}
	// Walk the window from the newest access back: the first time a block
	// is seen is its latest access, and the table must point at it.
	latest := 0
	for age := uint64(1); age <= o.window && age <= o.time; age++ {
		t := o.time - age
		pos := t % o.window
		i, ok := o.find(o.ring[pos].block)
		if !ok {
			return fmt.Errorf("block %#x accessed at time %d has no entry", o.ring[pos].block, t)
		}
		at := uint64(o.slots[i] - 1)
		if at == pos {
			latest++
		} else if (o.time-1-at)%o.window >= age-1 {
			return fmt.Errorf("block %#x: entry points at ring index %d, older than its access at time %d", o.ring[pos].block, at, t)
		}
	}
	if latest != o.live {
		return fmt.Errorf("%d distinct blocks in the window, %d live entries", latest, o.live)
	}
	return nil
}

// Hawkeye reconstructs Belady's decisions for sampled sets (OPTgen), trains
// a PC-indexed predictor on whether OPT would have kept each line, and uses
// the prediction to insert lines as cache-friendly (RRPV 0) or cache-averse
// (RRPV 7). Cache-averse lines are evicted first; among friendly lines the
// oldest goes.
type Hawkeye struct {
	pred    []uint8
	rrpv    []uint8      // sets×ways, set-major
	linePC  []uint64     // sets×ways: PC that inserted each line, for detraining
	samples []*optGenSet // per set; nil for a set OPTgen does not sample
	ways    int
}

// NewHawkeye returns a new Hawkeye policy.
func NewHawkeye() *Hawkeye { return &Hawkeye{} }

// Name implements Policy.
func (*Hawkeye) Name() string { return "hawkeye" }

// Init implements Policy.
func (p *Hawkeye) Init(cfg Config) {
	p.ways = cfg.Ways
	p.pred = make([]uint8, hkPredEntries)
	for i := range p.pred {
		p.pred[i] = hkPredInit
	}
	p.rrpv = make([]uint8, cfg.Sets*cfg.Ways)
	for i := range p.rrpv {
		p.rrpv[i] = hkRRIPMax
	}
	p.linePC = make([]uint64, cfg.Sets*cfg.Ways)
	p.samples = make([]*optGenSet, cfg.Sets)
	stride := cfg.Sets / hkSampleSets
	if stride == 0 {
		stride = 1
	}
	gens := newOptGenSets(min(hkSampleSets, (cfg.Sets+stride-1)/stride), cfg.Ways)
	for i := range gens {
		p.samples[i*stride] = &gens[i]
	}
}

// row returns the set's RRPVs and inserting PCs.
func (p *Hawkeye) row(setIdx uint32) (rrpv []uint8, pcs []uint64) {
	lo, hi := int(setIdx)*p.ways, int(setIdx+1)*p.ways
	return p.rrpv[lo:hi:hi], p.linePC[lo:hi:hi]
}

func (p *Hawkeye) predIndex(pc uint64) uint32 {
	return uint32(xrand.Mix64(pc)) & (hkPredEntries - 1)
}

func (p *Hawkeye) friendly(pc uint64) bool {
	return p.pred[p.predIndex(pc)] >= hkPredMax/2+1
}

// Victim implements Policy: evict a cache-averse line (RRPV 7) if any,
// otherwise the oldest cache-friendly line; detrain the predictor when a
// friendly line is evicted (OPT would not have).
func (p *Hawkeye) Victim(ctx AccessCtx, set *cache.Set) int {
	row, pcs := p.row(ctx.SetIdx)
	for w := range row {
		// >= not ==: a well-formed RRPV never exceeds hkRRIPMax, but the
		// averse scan must not fall through to the friendly fallback (and
		// its detraining side effect) if one ever does.
		if row[w] >= hkRRIPMax {
			return w
		}
	}
	// No averse line: evict the oldest friendly line (highest RRPV after
	// aging; ties break to the line with the greatest age).
	best, bestAge := 0, uint32(0)
	for w := range set.Lines {
		if a := set.AgeSinceInsert(&set.Lines[w]); a >= bestAge {
			best, bestAge = w, a
		}
	}
	// Detrain: OPT disagreed with the prediction that kept this line.
	idx := p.predIndex(pcs[best])
	if p.pred[idx] > 0 {
		p.pred[idx]--
	}
	return best
}

// Update implements Policy.
func (p *Hawkeye) Update(ctx AccessCtx, _ *cache.Set, way int, hit bool) {
	// OPTgen training happens on every demand/prefetch access to a sampled
	// set, hit or miss.
	if ctx.Type != trace.Writeback {
		if og := p.samples[ctx.SetIdx]; og != nil {
			block := ctx.Addr >> 6
			if optHit, trainPC, trainable := og.access(block, ctx.PC); trainable {
				idx := p.predIndex(trainPC)
				if optHit {
					if p.pred[idx] < hkPredMax {
						p.pred[idx]++
					}
				} else if p.pred[idx] > 0 {
					p.pred[idx]--
				}
			}
		}
	}

	row, pcs := p.row(ctx.SetIdx)
	if hit {
		if ctx.Type == trace.Writeback {
			return
		}
		pcs[way] = ctx.PC
		if p.friendly(ctx.PC) {
			row[way] = 0
		} else {
			row[way] = hkRRIPMax
		}
		return
	}
	// Fill.
	pcs[way] = ctx.PC
	if ctx.Type == trace.Writeback || !p.friendly(ctx.PC) {
		row[way] = hkRRIPMax
		return
	}
	// Friendly insertion: age the other friendly lines so older friendly
	// lines become eviction candidates before newer ones.
	for w := range row {
		if w != way && row[w] < hkRRIPMax-1 {
			row[w]++
		}
	}
	row[way] = 0
}

// CheckInvariants implements InvariantChecker: predictor counters within
// their 3-bit CRC2 width, per-line RRPVs within the 3-bit range, every
// OPTgen occupancy quantum at or below the set's capacity (OPTgen only
// increments a quantum after proving it below capacity, so exceeding it
// means the liveness accounting broke), and each sampler's history table
// consistent with its ring (optGenSet.check).
func (p *Hawkeye) CheckInvariants() error {
	for i, v := range p.pred {
		if v > hkPredMax {
			return fmt.Errorf("hawkeye: pred[%d] = %d exceeds 3-bit max %d", i, v, hkPredMax)
		}
	}
	for i, v := range p.rrpv {
		if v > hkRRIPMax {
			return fmt.Errorf("hawkeye: rrpv[%d][%d] = %d exceeds max %d", i/p.ways, i%p.ways, v, hkRRIPMax)
		}
	}
	for setIdx, og := range p.samples {
		if og == nil {
			continue
		}
		for t, occ := range og.occupancy {
			if occ > og.capacity {
				return fmt.Errorf("hawkeye: optgen set %d occupancy[%d] = %d exceeds capacity %d",
					setIdx, t, occ, og.capacity)
			}
		}
		if err := og.check(); err != nil {
			return fmt.Errorf("hawkeye: optgen set %d: %w", setIdx, err)
		}
	}
	return nil
}
