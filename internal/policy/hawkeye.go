package policy

import (
	"fmt"

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
type optGenSet struct {
	occupancy []uint16 // circular, indexed by time % window
	time      uint64
	window    uint64
	capacity  uint16
	history   map[uint64]optSample
}

type optSample struct {
	time uint64
	pc   uint64
}

func newOptGenSet(ways int) *optGenSet {
	w := uint64(ways * hkHistoryMult)
	return &optGenSet{
		occupancy: make([]uint16, w),
		window:    w,
		capacity:  uint16(ways),
		history:   make(map[uint64]optSample),
	}
}

// access advances OPTgen one step for block/pc and reports whether the
// previous occurrence of block would have hit under OPT, together with the
// PC that brought it in (the PC to train). trainable is false for the first
// occurrence or when the previous one fell out of the window.
func (o *optGenSet) access(block, pc uint64) (optHit bool, trainPC uint64, trainable bool) {
	now := o.time
	o.time++
	o.occupancy[now%o.window] = 0 // open the new quantum

	prev, seen := o.history[block]
	if seen && now-prev.time < o.window && now > prev.time {
		trainable = true
		trainPC = prev.pc
		optHit = true
		for t := prev.time; t < now; t++ {
			if o.occupancy[t%o.window] >= o.capacity {
				optHit = false
				break
			}
		}
		if optHit {
			for t := prev.time; t < now; t++ {
				o.occupancy[t%o.window]++
			}
		}
	}
	o.history[block] = optSample{time: now, pc: pc}
	// Bound the sampler: drop entries that can no longer produce a
	// verdict. Amortize the sweep.
	if len(o.history) > int(4*o.window) {
		for b, s := range o.history {
			if now-s.time >= o.window {
				delete(o.history, b)
			}
		}
	}
	return optHit, trainPC, trainable
}

// Hawkeye reconstructs Belady's decisions for sampled sets (OPTgen), trains
// a PC-indexed predictor on whether OPT would have kept each line, and uses
// the prediction to insert lines as cache-friendly (RRPV 0) or cache-averse
// (RRPV 7). Cache-averse lines are evicted first; among friendly lines the
// oldest goes.
type Hawkeye struct {
	pred    []uint8
	rrpv    [][]uint8
	linePC  [][]uint64 // PC that inserted each line, for detraining
	samples map[uint32]*optGenSet
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
	p.rrpv = make([][]uint8, cfg.Sets)
	p.linePC = make([][]uint64, cfg.Sets)
	for i := range p.rrpv {
		p.rrpv[i] = make([]uint8, cfg.Ways)
		p.linePC[i] = make([]uint64, cfg.Ways)
		for w := range p.rrpv[i] {
			p.rrpv[i][w] = hkRRIPMax
		}
	}
	p.samples = make(map[uint32]*optGenSet, hkSampleSets)
	stride := cfg.Sets / hkSampleSets
	if stride == 0 {
		stride = 1
	}
	for s := 0; s < cfg.Sets; s += stride {
		p.samples[uint32(s)] = newOptGenSet(cfg.Ways)
		if len(p.samples) == hkSampleSets {
			break
		}
	}
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
	row := p.rrpv[ctx.SetIdx]
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
	idx := p.predIndex(p.linePC[ctx.SetIdx][best])
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
		if og, ok := p.samples[ctx.SetIdx]; ok {
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

	row := p.rrpv[ctx.SetIdx]
	if hit {
		if ctx.Type == trace.Writeback {
			return
		}
		p.linePC[ctx.SetIdx][way] = ctx.PC
		if p.friendly(ctx.PC) {
			row[way] = 0
		} else {
			row[way] = hkRRIPMax
		}
		return
	}
	// Fill.
	p.linePC[ctx.SetIdx][way] = ctx.PC
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
// their 3-bit CRC2 width, per-line RRPVs within the 3-bit range, and every
// OPTgen occupancy quantum at or below the set's capacity (OPTgen only
// increments a quantum after proving it below capacity, so exceeding it
// means the liveness accounting broke).
func (p *Hawkeye) CheckInvariants() error {
	for i, v := range p.pred {
		if v > hkPredMax {
			return fmt.Errorf("hawkeye: pred[%d] = %d exceeds 3-bit max %d", i, v, hkPredMax)
		}
	}
	for setIdx := range p.rrpv {
		for w, v := range p.rrpv[setIdx] {
			if v > hkRRIPMax {
				return fmt.Errorf("hawkeye: rrpv[%d][%d] = %d exceeds max %d", setIdx, w, v, hkRRIPMax)
			}
		}
	}
	for setIdx, og := range p.samples {
		for t, occ := range og.occupancy {
			if occ > og.capacity {
				return fmt.Errorf("hawkeye: optgen set %d occupancy[%d] = %d exceeds capacity %d",
					setIdx, t, occ, og.capacity)
			}
		}
	}
	return nil
}
