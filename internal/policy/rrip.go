package policy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/xrand"
)

func init() {
	Register("srrip", func() Policy { return NewSRRIP() })
	Register("brrip", func() Policy { return NewBRRIP(2) })
	Register("drrip", func() Policy { return NewDRRIP(3) })
}

// rripBits is the RRPV counter width used by the RRIP family (2 bits, as in
// Jaleel et al. and the CRC2 baselines; 8KB for a 2MB 16-way LLC, Table I).
const rripBits = 2

// rripMax is the distant re-reference prediction value (3 for 2-bit RRPVs).
const rripMax = (1 << rripBits) - 1

// rripState holds per-line RRPVs for one cache.
type rripState struct {
	rrpv [][]uint8 // [set][way]
}

func newRRIPState(cfg Config) rripState {
	return rripState{rrpv: setRows(cfg, uint8(rripMax))}
}

// victim returns the way with RRPV >= max, aging the whole set until one
// exists (the standard SRRIP victim search). Ties break toward way 0. The
// comparison is >= rather than ==: a correct RRPV can never exceed rripMax,
// but an exact-equality scan would spin the aging loop through a uint8
// wraparound if one ever did, turning a state corruption into near-silent
// misbehaviour instead of a victim the invariant checker can flag.
func (s *rripState) victim(setIdx uint32) int {
	row := s.rrpv[setIdx]
	for {
		for w := range row {
			if row[w] >= rripMax {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

// check audits the RRPV array: every counter must be within the 2-bit
// width. It is the shared core of the RRIP family's InvariantChecker
// implementations and allocates only on failure.
func (s *rripState) check(name string) error {
	for setIdx := range s.rrpv {
		for w, v := range s.rrpv[setIdx] {
			if v > rripMax {
				return fmt.Errorf("%s: rrpv[%d][%d] = %d exceeds %d-bit max %d",
					name, setIdx, w, v, rripBits, rripMax)
			}
		}
	}
	return nil
}

// SRRIP is Static RRIP: insert at RRPV=2 (long re-reference interval),
// promote to 0 on hit.
type SRRIP struct {
	st rripState
}

// NewSRRIP returns a new SRRIP policy.
func NewSRRIP() *SRRIP { return &SRRIP{} }

// Name implements Policy.
func (*SRRIP) Name() string { return "srrip" }

// Init implements Policy.
func (p *SRRIP) Init(cfg Config) { p.st = newRRIPState(cfg) }

// Victim implements Policy.
func (p *SRRIP) Victim(ctx AccessCtx, _ *cache.Set) int { return p.st.victim(ctx.SetIdx) }

// Update implements Policy.
func (p *SRRIP) Update(ctx AccessCtx, _ *cache.Set, way int, hit bool) {
	if hit {
		p.st.rrpv[ctx.SetIdx][way] = 0
		return
	}
	p.st.rrpv[ctx.SetIdx][way] = rripMax - 1
}

// BRRIP is Bimodal RRIP: insert at RRPV=3 most of the time, RRPV=2 with low
// probability (1/32), protecting the cache from scans.
type BRRIP struct {
	st  rripState
	rng *xrand.Rand
}

// NewBRRIP returns a BRRIP policy with a deterministic insertion-dither
// stream derived from seed.
func NewBRRIP(seed uint64) *BRRIP { return &BRRIP{rng: xrand.New(seed)} }

// Name implements Policy.
func (*BRRIP) Name() string { return "brrip" }

// Init implements Policy.
func (p *BRRIP) Init(cfg Config) {
	p.st = newRRIPState(cfg)
	if p.rng == nil {
		p.rng = xrand.New(2)
	}
}

// Victim implements Policy.
func (p *BRRIP) Victim(ctx AccessCtx, _ *cache.Set) int { return p.st.victim(ctx.SetIdx) }

// Update implements Policy.
func (p *BRRIP) Update(ctx AccessCtx, _ *cache.Set, way int, hit bool) {
	if hit {
		p.st.rrpv[ctx.SetIdx][way] = 0
		return
	}
	if p.rng.Intn(32) == 0 {
		p.st.rrpv[ctx.SetIdx][way] = rripMax - 1
	} else {
		p.st.rrpv[ctx.SetIdx][way] = rripMax
	}
}

// DRRIP is Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion with
// a 10-bit policy-selection counter (Jaleel et al. [12]).
type DRRIP struct {
	st        rripState
	rng       *xrand.Rand
	psel      int // saturating in [0, pselMax]
	setMask   uint32
	srripSlot uint32 // leader slot (setIdx & setMask) dedicated to SRRIP
	brripSlot uint32 // leader slot dedicated to BRRIP
	dueling   bool   // false when the cache is too small for two distinct leaders
}

const (
	pselMax   = 1023 // 10-bit PSEL
	pselInit  = pselMax / 2
	duelGroup = 64 // leader sets: one SRRIP + one BRRIP leader per 64 sets
)

// NewDRRIP returns a DRRIP policy seeded for its BRRIP dither stream.
func NewDRRIP(seed uint64) *DRRIP { return &DRRIP{rng: xrand.New(seed)} }

// Name implements Policy.
func (*DRRIP) Name() string { return "drrip" }

// Init implements Policy.
func (p *DRRIP) Init(cfg Config) {
	p.st = newRRIPState(cfg)
	if p.rng == nil {
		p.rng = xrand.New(3)
	}
	p.psel = pselInit
	p.setMask = uint32(duelGroup - 1)
	if cfg.Sets < duelGroup {
		p.setMask = uint32(cfg.Sets - 1)
	}
	// Leader slots within each duelling group. The SRRIP leader sits at
	// slot 0 and the BRRIP leader at the middle slot, as before — but for
	// caches smaller than a duelling group the middle slot collapses onto
	// slot 0 (Sets ∈ {1, 2} give setMask/2 == 0), which used to leave the
	// BRRIP leader shadowed by the SRRIP case arm: PSEL could then only
	// ever vote one way. Resolve the collision toward the top slot; with a
	// single set no distinct pair exists, so dueling is disabled and DRRIP
	// degrades to its SRRIP component (PSEL holds its init value).
	p.srripSlot = 0
	p.brripSlot = p.setMask / 2
	if p.brripSlot == p.srripSlot {
		p.brripSlot = p.setMask
	}
	p.dueling = p.brripSlot != p.srripSlot
}

// leader classifies a set: +1 = SRRIP leader, -1 = BRRIP leader, 0 follower.
func (p *DRRIP) leader(setIdx uint32) int {
	if !p.dueling {
		return 0
	}
	switch setIdx & p.setMask {
	case p.srripSlot:
		return +1
	case p.brripSlot:
		return -1
	default:
		return 0
	}
}

// Victim implements Policy.
func (p *DRRIP) Victim(ctx AccessCtx, _ *cache.Set) int { return p.st.victim(ctx.SetIdx) }

// Update implements Policy.
func (p *DRRIP) Update(ctx AccessCtx, _ *cache.Set, way int, hit bool) {
	if hit {
		p.st.rrpv[ctx.SetIdx][way] = 0
		return
	}
	// A miss in a leader set votes against that leader's policy.
	switch p.leader(ctx.SetIdx) {
	case +1: // SRRIP leader missed → favour BRRIP
		if p.psel < pselMax {
			p.psel++
		}
	case -1: // BRRIP leader missed → favour SRRIP
		if p.psel > 0 {
			p.psel--
		}
	}
	useBRRIP := false
	switch p.leader(ctx.SetIdx) {
	case +1:
		useBRRIP = false
	case -1:
		useBRRIP = true
	default:
		// Followers read the PSEL MSB (Jaleel et al.): the high bit of the
		// 10-bit counter is set exactly when psel >= pselInit+1 == 512.
		useBRRIP = p.psel >= pselInit+1
	}
	if useBRRIP {
		if p.rng.Intn(32) == 0 {
			p.st.rrpv[ctx.SetIdx][way] = rripMax - 1
		} else {
			p.st.rrpv[ctx.SetIdx][way] = rripMax
		}
	} else {
		p.st.rrpv[ctx.SetIdx][way] = rripMax - 1
	}
}

// CheckInvariants implements InvariantChecker.
func (p *SRRIP) CheckInvariants() error { return p.st.check("srrip") }

// CheckInvariants implements InvariantChecker.
func (p *BRRIP) CheckInvariants() error { return p.st.check("brrip") }

// CheckInvariants implements InvariantChecker: RRPV widths, the 10-bit PSEL
// range, and the leader-slot geometry (two distinct slots whenever dueling
// is on).
func (p *DRRIP) CheckInvariants() error {
	if err := p.st.check("drrip"); err != nil {
		return err
	}
	if p.psel < 0 || p.psel > pselMax {
		return fmt.Errorf("drrip: psel = %d outside [0, %d]", p.psel, pselMax)
	}
	if p.dueling && p.srripSlot == p.brripSlot {
		return fmt.Errorf("drrip: dueling enabled but leader slots collide at %d", p.srripSlot)
	}
	return nil
}
