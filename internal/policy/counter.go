package policy

import (
	"repro/internal/cache"
	"repro/internal/xrand"
)

func init() {
	Register("cbr", func() Policy { return NewCBR() })
}

// CBR is the counter-based replacement of Kharbutli & Solihin [18] (§II):
// each line carries an event counter (set accesses since the line's last
// access) and a per-line threshold learned from the line's past behaviour;
// once the counter passes the threshold the line is expired and eligible
// for replacement. A PC-indexed prediction table retains learned
// thresholds across evictions (the paper's "counter prediction table").
type CBR struct {
	counters   [][]uint16 // per-line access-interval counter
	thresholds [][]uint16 // per-line learned expiry threshold
	inited     [][]bool
	// table maps a hashed PC to the last learned threshold for lines that
	// PC inserts.
	table []uint16
}

const (
	cbrTableSize = 1 << 12
	cbrDefault   = 8 // untrained PCs expire quickly (streams dominate them)
	cbrCap       = 1024
	cbrSlack     = 2 // threshold = observed max interval × slack
)

// NewCBR returns a new counter-based replacement policy.
func NewCBR() *CBR { return &CBR{} }

// Name implements Policy.
func (*CBR) Name() string { return "cbr" }

// Init implements Policy.
func (p *CBR) Init(cfg Config) {
	p.counters = make([][]uint16, cfg.Sets)
	p.thresholds = make([][]uint16, cfg.Sets)
	p.inited = make([][]bool, cfg.Sets)
	for i := range p.counters {
		p.counters[i] = make([]uint16, cfg.Ways)
		p.thresholds[i] = make([]uint16, cfg.Ways)
		p.inited[i] = make([]bool, cfg.Ways)
	}
	p.table = make([]uint16, cbrTableSize)
	for i := range p.table {
		p.table[i] = cbrDefault
	}
}

func cbrIndex(pc uint64) uint32 { return uint32(xrand.Mix64(pc)) & (cbrTableSize - 1) }

// Victim implements Policy: an expired line (counter past threshold) goes
// first; otherwise the line closest to expiry relative to its threshold.
// Either way the victim trains the prediction table: a line evicted
// without any reuse teaches its inserting PC a shorter expiry (the
// counter-retention across evictions of [18]).
func (p *CBR) Victim(ctx AccessCtx, set *cache.Set) int {
	cnt, thr := p.counters[ctx.SetIdx], p.thresholds[ctx.SetIdx]
	best, bestSlack := -1, int(^uint(0)>>1)
	for w := range cnt {
		slack := int(thr[w]) - int(cnt[w])
		if slack < 0 {
			best = w // expired
			break
		}
		if slack < bestSlack {
			best, bestSlack = w, slack
		}
	}
	if set.Lines[best].HitsSinceInsert == 0 {
		// A line that died without reuse drifts its PC's threshold down
		// (EMA, so one unlucky eviction cannot clobber a hit-trained PC).
		idx := cbrIndex(set.Lines[best].InsertPC)
		t := cnt[best]
		if t == 0 {
			t = 1
		}
		p.table[idx] = (p.table[idx]*3 + t) / 4
	}
	return best
}

// Update implements Policy.
func (p *CBR) Update(ctx AccessCtx, set *cache.Set, way int, hit bool) {
	cnt, thr := p.counters[ctx.SetIdx], p.thresholds[ctx.SetIdx]
	for w := range cnt {
		if cnt[w] < cbrCap {
			cnt[w]++
		}
	}
	if hit {
		// Learn: the line's threshold tracks its largest observed access
		// interval (with slack), and trains the PC table.
		interval := cnt[way] - 1
		if t := interval * cbrSlack; t > thr[way] {
			if t > cbrCap {
				t = cbrCap
			}
			thr[way] = t
			p.table[cbrIndex(set.Lines[way].InsertPC)] = t
		}
		cnt[way] = 0
		return
	}
	// Fill: seed the threshold from the inserting PC's history.
	cnt[way] = 0
	thr[way] = p.table[cbrIndex(ctx.PC)]
	p.inited[ctx.SetIdx][way] = true
}
