package policy

import (
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func init() {
	Register("glider", func() Policy { return NewGlider() })
}

// Glider parameters (Shi et al. [24], hardware configuration).
const (
	gliderHistory   = 5       // PCHR depth: last 5 load PCs
	gliderTables    = 1 << 11 // per-PC ISVM tables
	gliderSlots     = 16      // weight slots per table (4-bit history hash)
	gliderWeightMax = 31      // saturating integer weights
	gliderTauHigh   = 30      // confidence threshold for near insertion
	gliderMargin    = 45      // training margin (update only inside it)
)

// Glider implements the ISVM-based predictor of "Applying Deep Learning to
// the Cache Replacement Problem" (§II): an offline LSTM's insight —
// control-flow history matters — distilled into a per-PC integer SVM over
// the Program Counter History Register. Like Hawkeye it trains against
// OPTgen on sampled sets and inserts lines as cache-friendly or
// cache-averse. It is the most expensive Table I policy (61.6KB).
type Glider struct {
	weights []int16 // [gliderTables][gliderSlots]
	history [gliderHistory]uint16
	rrpv    [][]uint8
	linePC  [][]uint64
	samples map[uint32]*gliderOptSet
	ways    int
}

// gliderOptSet extends the OPTgen sampler with PCHR snapshots so training
// can reconstruct the history that accompanied each past access.
type gliderOptSet struct {
	og   *optGenSet
	hist map[uint64][gliderHistory]uint16 // block → PCHR at last access
}

// NewGlider returns a new Glider policy.
func NewGlider() *Glider { return &Glider{} }

// Name implements Policy.
func (*Glider) Name() string { return "glider" }

// Init implements Policy.
func (p *Glider) Init(cfg Config) {
	p.ways = cfg.Ways
	p.weights = make([]int16, gliderTables*gliderSlots)
	p.history = [gliderHistory]uint16{}
	p.rrpv = make([][]uint8, cfg.Sets)
	p.linePC = make([][]uint64, cfg.Sets)
	for i := range p.rrpv {
		p.rrpv[i] = make([]uint8, cfg.Ways)
		p.linePC[i] = make([]uint64, cfg.Ways)
		for w := range p.rrpv[i] {
			p.rrpv[i][w] = hkRRIPMax
		}
	}
	p.samples = make(map[uint32]*gliderOptSet, hkSampleSets)
	stride := cfg.Sets / hkSampleSets
	if stride == 0 {
		stride = 1
	}
	for s := 0; s < cfg.Sets; s += stride {
		p.samples[uint32(s)] = &gliderOptSet{
			og:   newOptGenSet(cfg.Ways),
			hist: make(map[uint64][gliderHistory]uint16),
		}
		if len(p.samples) == hkSampleSets {
			break
		}
	}
}

func gliderTable(pc uint64) uint32 { return uint32(xrand.Mix64(pc)) & (gliderTables - 1) }
func gliderSlot(h uint16) int      { return int(h) & (gliderSlots - 1) }

// score sums the ISVM weights of pc's table at the history's slots.
func (p *Glider) score(pc uint64, hist [gliderHistory]uint16) int {
	base := gliderTable(pc) * gliderSlots
	sum := 0
	for _, h := range hist {
		sum += int(p.weights[base+uint32(gliderSlot(h))])
	}
	return sum
}

// train nudges pc's weights toward (optHit) for the recorded history,
// with margin-based early stopping as in integer SVM training.
func (p *Glider) train(pc uint64, hist [gliderHistory]uint16, optHit bool) {
	sum := p.score(pc, hist)
	if optHit && sum > gliderMargin {
		return // confidently correct: leave weights alone
	}
	if !optHit && sum < -gliderMargin {
		return
	}
	base := gliderTable(pc) * gliderSlots
	for _, h := range hist {
		i := base + uint32(gliderSlot(h))
		if optHit {
			if p.weights[i] < gliderWeightMax {
				p.weights[i]++
			}
		} else if p.weights[i] > -gliderWeightMax {
			p.weights[i]--
		}
	}
}

// Victim implements Policy: cache-averse lines (RRPV 7) first, then the
// oldest line, detraining its PC on the way out.
func (p *Glider) Victim(ctx AccessCtx, set *cache.Set) int {
	row := p.rrpv[ctx.SetIdx]
	for w := range row {
		if row[w] == hkRRIPMax {
			return w
		}
	}
	best, bestAge := 0, uint32(0)
	for w := range set.Lines {
		if a := set.AgeSinceInsert(&set.Lines[w]); a >= bestAge {
			best, bestAge = w, a
		}
	}
	p.train(p.linePC[ctx.SetIdx][best], p.history, false)
	return best
}

// Update implements Policy.
func (p *Glider) Update(ctx AccessCtx, set *cache.Set, way int, hit bool) {
	if ctx.Type != trace.Writeback {
		// OPTgen training on sampled sets, with the history that
		// accompanied the previous access to the block.
		if gs, ok := p.samples[ctx.SetIdx]; ok {
			block := ctx.Addr >> 6
			prevHist, seen := gs.hist[block]
			if optHit, trainPC, trainable := gs.og.access(block, ctx.PC); trainable && seen {
				p.train(trainPC, prevHist, optHit)
			}
			gs.hist[block] = p.history
			if len(gs.hist) > 4096 {
				gs.hist = make(map[uint64][gliderHistory]uint16)
			}
		}
		// Shift the PCHR on demand accesses.
		if ctx.Type.IsDemand() {
			copy(p.history[1:], p.history[:gliderHistory-1])
			p.history[0] = uint16(xrand.Mix64(ctx.PC))
		}
	}

	row := p.rrpv[ctx.SetIdx]
	if hit {
		if ctx.Type == trace.Writeback {
			return
		}
		p.linePC[ctx.SetIdx][way] = ctx.PC
		row[way] = p.insertionRRPV(ctx.PC)
		return
	}
	p.linePC[ctx.SetIdx][way] = ctx.PC
	if ctx.Type == trace.Writeback {
		row[way] = hkRRIPMax
		return
	}
	ins := p.insertionRRPV(ctx.PC)
	if ins == 0 {
		for w := range row {
			if w != way && row[w] < hkRRIPMax-1 {
				row[w]++
			}
		}
	}
	row[way] = ins
}

// insertionRRPV maps the ISVM confidence to Glider's three insertion
// levels: high-confidence friendly → 0, averse → 7, uncertain → 2.
func (p *Glider) insertionRRPV(pc uint64) uint8 {
	sum := p.score(pc, p.history)
	switch {
	case sum >= gliderTauHigh:
		return 0
	case sum < 0:
		return hkRRIPMax
	default:
		return 2
	}
}
