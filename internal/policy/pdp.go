package policy

import (
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func init() {
	Register("pdp", func() Policy { return NewPDP() })
}

// PDP parameters (Duong et al. [6]).
const (
	pdpMaxPD       = 256     // the paper's search bound on protecting distance
	pdpRecompute   = 1 << 14 // accesses between PD searches
	pdpCounterCap  = pdpMaxPD
	pdpSampleShift = 2 // sample 1 in 4 blocks into the RD monitor
)

// PDP is the Protecting Distance based Policy: every line is protected for
// PD set accesses after insertion or reuse; on a miss an unprotected line
// is evicted. With none, either the access bypasses the cache (the paper's
// LLC mode, AllowBypass) or the line with the minimum set-access counter —
// the most recently touched line — is evicted, exactly as [6] specifies.
//
// The protecting distance is recomputed periodically by sweeping candidate
// distances over a sampled reuse-distance histogram and maximizing the hit
// yield — the paper's "dedicated special-purpose processor executing a
// search algorithm", realized in software. The reuse-distance monitor
// samples blocks independently of their cache residency so PD can be
// learned even when the current PD produces no hits.
type PDP struct {
	pd       uint32
	counters [][]uint32 // per-line set-access counter since last access
	// rdHist[d] counts sampled reuse distances == d (d < pdpMaxPD); rdOver
	// counts sampled blocks whose reuse distance exceeded the bound (or
	// that were never reused before falling out of the monitor).
	rdHist   []uint64
	rdOver   uint64
	accesses uint64
	// monitor maps sampled blocks to the set-access count at their last
	// reference, keyed by (set, block).
	monitor map[pdpKey]uint64
	// AllowBypass enables the paper's bypass mode: with no unprotected
	// line, the incoming request bypasses the cache.
	AllowBypass bool
}

type pdpKey struct {
	set   uint32
	block uint64
}

// NewPDP returns a new PDP policy with an initial protecting distance of 64.
func NewPDP() *PDP { return &PDP{} }

// Name implements Policy.
func (*PDP) Name() string { return "pdp" }

// Init implements Policy.
func (p *PDP) Init(cfg Config) {
	p.pd = 64
	p.counters = make([][]uint32, cfg.Sets)
	for i := range p.counters {
		p.counters[i] = make([]uint32, cfg.Ways)
	}
	p.rdHist = make([]uint64, pdpMaxPD)
	p.rdOver = 0
	p.accesses = 0
	p.monitor = make(map[pdpKey]uint64)
}

// Victim implements Policy.
func (p *PDP) Victim(ctx AccessCtx, set *cache.Set) int {
	row := p.counters[ctx.SetIdx]
	for w := range row {
		if row[w] >= p.pd {
			return w // unprotected: past its protecting distance
		}
	}
	if p.AllowBypass && ctx.Type != trace.Writeback {
		return Bypass
	}
	// All protected: evict the line with the minimum set-access counter
	// (the most recently touched), per [6].
	best, bestCnt := 0, row[0]
	for w := 1; w < len(row); w++ {
		if row[w] < bestCnt {
			best, bestCnt = w, row[w]
		}
	}
	return best
}

// Update implements Policy.
func (p *PDP) Update(ctx AccessCtx, set *cache.Set, way int, hit bool) {
	p.sampleRD(ctx, set)
	row := p.counters[ctx.SetIdx]
	for w := range row {
		if row[w] < pdpCounterCap {
			row[w]++
		}
	}
	row[way] = 0 // reused or freshly inserted: protection window restarts
	p.accesses++
	if p.accesses%pdpRecompute == 0 {
		p.recomputePD()
	}
}

// sampleRD feeds the reuse-distance monitor: sampled blocks record the
// set-access distance between consecutive references, independent of
// whether those references hit.
func (p *PDP) sampleRD(ctx AccessCtx, set *cache.Set) {
	block := ctx.Addr >> 6
	key := pdpKey{set: ctx.SetIdx, block: block}
	if last, ok := p.monitor[key]; ok {
		d := set.Accesses - last
		if d < pdpMaxPD {
			p.rdHist[d]++
		} else {
			p.rdOver++
		}
		p.monitor[key] = set.Accesses
		return
	}
	if (xrand.Mix64(block)>>8)&((1<<pdpSampleShift)-1) == 0 {
		p.monitor[key] = set.Accesses
		if len(p.monitor) > 8192 {
			p.sweepMonitor(set.Accesses)
		}
	}
}

// sweepMonitor drops entries whose reuse distance already exceeds the PD
// search bound, counting each as an over-bound reuse.
func (p *PDP) sweepMonitor(now uint64) {
	for k, t := range p.monitor {
		if now < t || now-t >= pdpMaxPD {
			p.rdOver++
			delete(p.monitor, k)
		}
	}
}

// recomputePD sweeps candidate protecting distances and picks the one with
// the best hit yield: hits captured per unit of cache occupancy-time,
// following the PDP paper's E(d) estimator.
func (p *PDP) recomputePD() {
	total := p.rdOver
	for _, c := range p.rdHist {
		total += c
	}
	if total == 0 {
		return
	}
	bestPD, bestYield := p.pd, 0.0
	var hits, weighted uint64
	for d := uint32(1); d < pdpMaxPD; d++ {
		hits += p.rdHist[d-1] // reuses at distance < d are captured
		weighted += p.rdHist[d-1] * uint64(d)
		// Lines not reused within d occupy the cache for d accesses each.
		missers := total - hits
		occupancy := weighted + uint64(d)*missers
		if occupancy == 0 {
			continue
		}
		yield := float64(hits) / float64(occupancy)
		if yield > bestYield {
			bestYield, bestPD = yield, d
		}
	}
	p.pd = bestPD
	// Decay the histogram so the next phase can shift the distribution.
	for i := range p.rdHist {
		p.rdHist[i] /= 2
	}
	p.rdOver /= 2
}
