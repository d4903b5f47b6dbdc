package policy

// Regression tests for the bug sweep: DRRIP leader-set degeneracy on small
// caches, the LRU victim scan's recency-width handling, and
// saturating-counter bounds.
// They exercise unexported state directly, so they live inside the package.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

func drripCfg(sets, ways int) Config {
	return Config{Config: cache.Config{Sets: sets, Ways: ways, LineSize: 64}, NumCores: 1}
}

// TestDRRIPLeaderGeometry pins the leader-slot layout across cache sizes.
// Before the fix, Sets ∈ {1, 2} collapsed the BRRIP leader onto the SRRIP
// slot (setMask/2 == 0), leaving it shadowed by the SRRIP case arm: PSEL
// could then only ever vote toward BRRIP.
func TestDRRIPLeaderGeometry(t *testing.T) {
	cases := []struct {
		sets      int
		dueling   bool
		srripSlot uint32
		brripSlot uint32
	}{
		{sets: 1, dueling: false, srripSlot: 0, brripSlot: 0},
		{sets: 2, dueling: true, srripSlot: 0, brripSlot: 1},
		{sets: 32, dueling: true, srripSlot: 0, brripSlot: 15},
		{sets: 64, dueling: true, srripSlot: 0, brripSlot: 31},
		{sets: 2048, dueling: true, srripSlot: 0, brripSlot: 31},
	}
	for _, tc := range cases {
		p := NewDRRIP(3)
		p.Init(drripCfg(tc.sets, 4))
		if p.dueling != tc.dueling {
			t.Errorf("Sets=%d: dueling = %v, want %v", tc.sets, p.dueling, tc.dueling)
		}
		if p.srripSlot != tc.srripSlot || p.brripSlot != tc.brripSlot {
			t.Errorf("Sets=%d: leader slots (%d, %d), want (%d, %d)",
				tc.sets, p.srripSlot, p.brripSlot, tc.srripSlot, tc.brripSlot)
		}
		if tc.dueling {
			srrip, brrip := 0, 0
			for s := 0; s < tc.sets; s++ {
				switch p.leader(uint32(s)) {
				case +1:
					srrip++
				case -1:
					brrip++
				}
			}
			want := tc.sets / duelGroup
			if want == 0 {
				want = 1
			}
			if srrip != want || brrip != want {
				t.Errorf("Sets=%d: %d SRRIP / %d BRRIP leader sets, want %d each",
					tc.sets, srrip, brrip, want)
			}
		}
		if err := p.CheckInvariants(); err != nil {
			t.Errorf("Sets=%d: fresh DRRIP fails self-check: %v", tc.sets, err)
		}
	}
}

// TestDRRIPPselMovesBothDirections drives misses into each leader set of a
// two-set cache and asserts PSEL moves both ways. On the pre-fix layout the
// BRRIP leader did not exist, so PSEL was a one-way ratchet.
func TestDRRIPPselMovesBothDirections(t *testing.T) {
	p := NewDRRIP(3)
	p.Init(drripCfg(2, 2))
	start := p.psel
	p.Update(AccessCtx{SetIdx: 0}, nil, 0, false) // SRRIP leader misses
	if p.psel != start+1 {
		t.Fatalf("after SRRIP-leader miss: psel = %d, want %d", p.psel, start+1)
	}
	p.Update(AccessCtx{SetIdx: 1}, nil, 0, false) // BRRIP leader misses
	p.Update(AccessCtx{SetIdx: 1}, nil, 0, false)
	if p.psel != start-1 {
		t.Fatalf("after two BRRIP-leader misses: psel = %d, want %d", p.psel, start-1)
	}
}

// TestDRRIPFollowerReadsPselMSB pins the follower decision to the PSEL MSB:
// psel <= 511 inserts SRRIP-style (RRPV 2, always), psel >= 512 BRRIP-style
// (bimodal: mostly RRPV 3). Follower misses themselves never move PSEL.
func TestDRRIPFollowerReadsPselMSB(t *testing.T) {
	const follower = 2 // sets 0 and 31 are the leaders in a 128-set cache
	p := NewDRRIP(3)
	p.Init(drripCfg(128, 4))
	if got := p.leader(follower); got != 0 {
		t.Fatalf("set %d classified %d, want follower", follower, got)
	}

	p.psel = pselInit // MSB clear → SRRIP insertion, deterministically
	for i := 0; i < 50; i++ {
		p.Update(AccessCtx{SetIdx: follower}, nil, i%4, false)
		if got := p.st.rrpv[follower][i%4]; got != rripMax-1 {
			t.Fatalf("psel=%d follower fill %d inserted at RRPV %d, want %d", pselInit, i, got, rripMax-1)
		}
	}
	p.psel = pselInit + 1 // MSB set → BRRIP insertion: RRPV 3 except the 1/32 dither
	sawDistant := false
	for i := 0; i < 100; i++ {
		p.Update(AccessCtx{SetIdx: follower}, nil, i%4, false)
		if got := p.st.rrpv[follower][i%4]; got == rripMax {
			sawDistant = true
		} else if got != rripMax-1 {
			t.Fatalf("psel=%d follower fill %d inserted at RRPV %d", pselInit+1, i, got)
		}
	}
	if !sawDistant {
		t.Fatal("psel MSB set but no follower fill inserted at distant RRPV (BRRIP not selected)")
	}
	if p.psel != pselInit+1 {
		t.Fatalf("follower misses moved psel to %d", p.psel)
	}
}

// TestLRUWayNearMaxRecency pins Set.LRUWay (and MRU) on recency stamps at the
// top of the uint64 range: a narrowing or signed conversion in the
// comparison would wrap the largest stamp into a spuriously small key and
// steal the victim slot.
func TestLRUWayNearMaxRecency(t *testing.T) {
	const top = ^uint64(0)
	set := &cache.Set{Lines: []cache.Line{
		{TouchedAt: top - 1}, {TouchedAt: top}, {TouchedAt: top>>1 - 1}, {TouchedAt: top>>1 + 1},
	}}
	if got := set.LRUWay(); got != 2 {
		t.Fatalf("LRUWay = %d, want 2 (stamp 2^63-2)", got)
	}
	var mru MRU
	if got := mru.Victim(AccessCtx{}, set); got != 1 {
		t.Fatalf("MRU victim = %d, want 1 (stamp 2^64-1)", got)
	}
	full := &cache.Set{Lines: make([]cache.Line, 256)}
	for w := range full.Lines {
		full.Lines[w].TouchedAt = top - 255 + uint64(w)
	}
	if got := full.LRUWay(); got != 0 {
		t.Fatalf("256-way LRUWay = %d, want 0", got)
	}
	if got := mru.Victim(AccessCtx{}, full); got != 255 {
		t.Fatalf("256-way MRU victim = %d, want 255", got)
	}
}

// TestSHCTSaturation drives one signature through far more train-up and
// train-down events than the counter width holds: the 3-bit CRC2 counter
// must pin at its bounds, never wrap.
func TestSHCTSaturation(t *testing.T) {
	p := NewSHiP()
	p.Init(drripCfg(4, 2))
	ctx := AccessCtx{}
	ctx.PC = 0x401234
	sig := pcSignature(ctx.PC)

	p.Update(ctx, nil, 0, false) // fill records the signature
	for i := 0; i < 100; i++ {   // re-references train up
		p.Update(ctx, nil, 0, true)
	}
	if got := p.shct[sig]; got != shctMax {
		t.Fatalf("after 100 re-references: shct = %d, want saturated %d", got, shctMax)
	}
	for i := 0; i < 100; i++ { // dead evictions train down
		p.lines[0][0].outcome = false
		p.train(0, 0)
	}
	if got := p.shct[sig]; got != 0 {
		t.Fatalf("after 100 dead evictions: shct = %d, want floor 0", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("self-check after adversarial training: %v", err)
	}
}

// TestSHiPPPSaturation is the same bound check for SHiP++'s shared table,
// including its prefetch signature space.
func TestSHiPPPSaturation(t *testing.T) {
	p := NewSHiPPP(4)
	p.Init(drripCfg(4, 2))
	for _, fillType := range []trace.AccessType{trace.Load, trace.Prefetch} {
		ctx := AccessCtx{}
		ctx.PC = 0x405678
		ctx.Type = fillType
		sig := p.signature(ctx.PC, ctx.Type)
		p.Update(ctx, nil, 0, false)
		for i := 0; i < 100; i++ {
			p.lines[0][0].outcome = false // defeat first-re-reference gating
			ctxHit := ctx
			ctxHit.Type = trace.Load // demand hits train
			p.Update(ctxHit, nil, 0, true)
		}
		if got := p.shct[sig]; got != shctMax {
			t.Fatalf("%s fill: after 100 trained hits shct = %d, want %d", fillType, got, shctMax)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("self-check: %v", err)
	}
}

// TestRRIPStateCheckDetectsCorruption pins that the RRIP family's
// self-check actually fires on an out-of-width RRPV.
func TestRRIPStateCheckDetectsCorruption(t *testing.T) {
	p := NewSRRIP()
	p.Init(drripCfg(2, 2))
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("fresh SRRIP fails self-check: %v", err)
	}
	p.st.rrpv[1][0] = rripMax + 1
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("self-check missed an out-of-width RRPV")
	}
}

// TestDRRIPPselCheckDetectsCorruption does the same for the PSEL range.
func TestDRRIPPselCheckDetectsCorruption(t *testing.T) {
	p := NewDRRIP(3)
	p.Init(drripCfg(64, 4))
	p.psel = pselMax + 1
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("self-check missed an out-of-range PSEL")
	}
}
