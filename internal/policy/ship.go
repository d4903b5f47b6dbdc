package policy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func init() {
	Register("ship", func() Policy { return NewSHiP() })
	Register("ship++", func() Policy { return NewSHiPPP(4) })
}

// SHCT parameters shared by SHiP and SHiP++ (Wu et al. [30]): a 16K-entry
// Signature History Counter Table of 3-bit saturating counters indexed by a
// 14-bit PC signature.
const (
	shctEntries = 1 << 14
	shctMax     = 7
	shctInit    = 1
)

// pcSignature hashes a PC into the 14-bit SHCT index space.
func pcSignature(pc uint64) uint32 {
	return uint32(xrand.Mix64(pc)) & (shctEntries - 1)
}

// shipLine is SHiP's per-line state: the signature of the inserting access
// and the outcome bit recording whether the line has been re-referenced.
type shipLine struct {
	sig     uint32
	outcome bool
	valid   bool
}

// SHiP is the Signature-based Hit Predictor replacement policy [30] layered
// on SRRIP. Lines inserted by PCs with a zero SHCT counter are predicted
// dead and inserted at distant RRPV (3); all others at RRPV 2. The SHCT is
// trained up on re-references and down on evictions of never-reused lines.
type SHiP struct {
	st    rripState
	shct  []uint8
	lines [][]shipLine
}

// NewSHiP returns a new SHiP policy.
func NewSHiP() *SHiP { return &SHiP{} }

// Name implements Policy.
func (*SHiP) Name() string { return "ship" }

// Init implements Policy.
func (p *SHiP) Init(cfg Config) {
	p.st = newRRIPState(cfg)
	p.shct = make([]uint8, shctEntries)
	for i := range p.shct {
		p.shct[i] = shctInit
	}
	p.lines = setRows(cfg, shipLine{})
}

// Victim implements Policy. Before evicting, SHiP trains the SHCT down for
// a victim that was never re-referenced.
func (p *SHiP) Victim(ctx AccessCtx, _ *cache.Set) int {
	w := p.st.victim(ctx.SetIdx)
	p.train(ctx.SetIdx, w)
	return w
}

func (p *SHiP) train(setIdx uint32, way int) {
	ls := &p.lines[setIdx][way]
	if ls.valid && !ls.outcome && p.shct[ls.sig] > 0 {
		p.shct[ls.sig]--
	}
}

// Update implements Policy.
func (p *SHiP) Update(ctx AccessCtx, _ *cache.Set, way int, hit bool) {
	ls := &p.lines[ctx.SetIdx][way]
	if hit {
		p.st.rrpv[ctx.SetIdx][way] = 0
		// Writeback hits carry no PC and do not indicate reuse by the
		// program's load/store stream.
		if ctx.Type != trace.Writeback {
			ls.outcome = true
			if p.shct[ls.sig] < shctMax {
				p.shct[ls.sig]++
			}
		}
		return
	}
	// Fill. (Compulsory fills land in ways that never held a line, so there
	// is no previous occupant to train the SHCT down on; eviction-time
	// training happens in Victim, which the simulator calls for every
	// replacement of a valid line.)
	sig := pcSignature(ctx.PC)
	*ls = shipLine{sig: sig, valid: true}
	if p.shct[sig] == 0 {
		p.st.rrpv[ctx.SetIdx][way] = rripMax
	} else {
		p.st.rrpv[ctx.SetIdx][way] = rripMax - 1
	}
}

// checkSHCT audits a Signature History Counter Table against its 3-bit
// saturation bound (CRC2 width: counters in [0, 7]).
func checkSHCT(name string, shct []uint8) error {
	for i, v := range shct {
		if v > shctMax {
			return fmt.Errorf("%s: shct[%d] = %d exceeds 3-bit max %d", name, i, v, shctMax)
		}
	}
	return nil
}

// CheckInvariants implements InvariantChecker.
func (p *SHiP) CheckInvariants() error {
	if err := p.st.check("ship"); err != nil {
		return err
	}
	return checkSHCT("ship", p.shct)
}

// CheckInvariants implements InvariantChecker.
func (p *SHiPPP) CheckInvariants() error {
	if err := p.st.check("ship++"); err != nil {
		return err
	}
	return checkSHCT("ship++", p.shct)
}

// SHiPPP is SHiP++ (Young et al. [34]), enhancing SHiP with the five
// refinements the paper lists in §II:
//  1. lines from PCs with a saturated SHCT counter insert at RRPV 0;
//  2. the SHCT trains only on a line's first re-reference;
//  3. writeback insertions go straight to RRPV 3;
//  4. prefetch accesses use a separate signature space;
//  5. prefetch-aware promotion: a re-reference by a prefetch access does
//     not fully promote the line.
type SHiPPP struct {
	st    rripState
	shct  []uint8
	lines [][]shipLine
	rng   *xrand.Rand
}

// NewSHiPPP returns a new SHiP++ policy; seed drives its insertion dither.
func NewSHiPPP(seed uint64) *SHiPPP { return &SHiPPP{rng: xrand.New(seed)} }

// Name implements Policy.
func (*SHiPPP) Name() string { return "ship++" }

// Init implements Policy.
func (p *SHiPPP) Init(cfg Config) {
	p.st = newRRIPState(cfg)
	p.shct = make([]uint8, 2*shctEntries) // demand + prefetch signature spaces
	for i := range p.shct {
		p.shct[i] = shctInit
	}
	p.lines = setRows(cfg, shipLine{})
	if p.rng == nil {
		p.rng = xrand.New(4)
	}
}

func (p *SHiPPP) signature(pc uint64, t trace.AccessType) uint32 {
	sig := pcSignature(pc)
	if t == trace.Prefetch {
		sig += shctEntries // enhancement 4: separate prefetch signatures
	}
	return sig
}

// Victim implements Policy.
func (p *SHiPPP) Victim(ctx AccessCtx, _ *cache.Set) int {
	w := p.st.victim(ctx.SetIdx)
	ls := &p.lines[ctx.SetIdx][w]
	if ls.valid && !ls.outcome && p.shct[ls.sig] > 0 {
		p.shct[ls.sig]--
	}
	return w
}

// Update implements Policy.
func (p *SHiPPP) Update(ctx AccessCtx, _ *cache.Set, way int, hit bool) {
	ls := &p.lines[ctx.SetIdx][way]
	if hit {
		switch {
		case ctx.Type == trace.Prefetch:
			// Enhancement 5: prefetch re-references only mildly promote.
			if p.st.rrpv[ctx.SetIdx][way] > 0 {
				p.st.rrpv[ctx.SetIdx][way]--
			}
		case ctx.Type == trace.Writeback:
			// Writebacks say nothing about reuse; leave RRPV unchanged.
		default:
			p.st.rrpv[ctx.SetIdx][way] = 0
		}
		// Enhancement 2: train only on the first re-reference.
		if !ls.outcome && ctx.Type.IsDemand() {
			ls.outcome = true
			if p.shct[ls.sig] < shctMax {
				p.shct[ls.sig]++
			}
		}
		return
	}
	// Fill.
	sig := p.signature(ctx.PC, ctx.Type)
	*ls = shipLine{sig: sig, valid: true}
	switch {
	case ctx.Type == trace.Writeback:
		// Enhancement 3: writeback fills are distant.
		p.st.rrpv[ctx.SetIdx][way] = rripMax
	case p.shct[sig] == shctMax:
		// Enhancement 1: strongly-reused PCs insert near.
		p.st.rrpv[ctx.SetIdx][way] = 0
	case p.shct[sig] == 0:
		p.st.rrpv[ctx.SetIdx][way] = rripMax
	default:
		p.st.rrpv[ctx.SetIdx][way] = rripMax - 1
	}
}
