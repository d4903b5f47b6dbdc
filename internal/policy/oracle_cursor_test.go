package policy

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// streamTestTrace builds a reuse-heavy random trace (small block universe
// so chains are dense).
func streamTestTrace(n int, seed uint64) []trace.Access {
	rng := xrand.New(seed)
	out := make([]trace.Access, n)
	for i := range out {
		out[i] = trace.Access{
			PC:   0x400000 + uint64(rng.Intn(64))*4,
			Addr: uint64(rng.Intn(n/4+8)) * 64,
			Type: trace.AccessType(rng.Intn(int(trace.NumAccessTypes))),
		}
	}
	return out
}

// TestOracleNextAfterBuildsNoCursor: the Belady replay reads the oracle
// only through NextAfter, so an oracle it drives never builds the
// cursor's map.
func TestOracleNextAfterBuildsNoCursor(t *testing.T) {
	accesses := streamTestTrace(5000, 1)
	o := NewOracle(accesses, 64)
	p := NewBeladyBypass(o)
	cfg := Config{Config: cache.Config{Sets: 4, Ways: 4, LineSize: 64}, NumCores: 1}
	p.Init(cfg)
	set := &cache.Set{}
	for i, a := range accesses {
		ctx := AccessCtx{Access: a, Seq: uint64(i), SetIdx: uint32(i % cfg.Sets)}
		if w := p.Victim(ctx, set); w != Bypass {
			p.Update(ctx, set, w, false)
		}
		o.NextAfter(uint64(i))
	}
	if o.head != nil {
		t.Errorf("NextAfter-only oracle holds a %d-entry cursor map", len(o.head))
	}
}

// TestOracleLazyCursorMatchesReset: a fresh oracle answers NextUseBlock
// and SeekReplay exactly as one whose cursor ResetReplay built first,
// for in-order, backward and seek query patterns.
func TestOracleLazyCursorMatchesReset(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		accesses := streamTestTrace(200+rng.Intn(800), seed)
		n := uint64(len(accesses))
		fresh, reset := NewOracle(accesses, 64), NewOracle(accesses, 64)
		reset.ResetReplay()
		if seed%2 == 0 {
			pos := rng.Uint64n(n + 1)
			fresh.SeekReplay(pos)
			reset.SeekReplay(pos)
		}
		seq := uint64(0)
		for q := 0; q < 500; q++ {
			switch rng.Intn(10) {
			case 0: // behind the cursor
				seq = rng.Uint64n(n)
			case 1:
				pos := rng.Uint64n(n + 1)
				fresh.SeekReplay(pos)
				reset.SeekReplay(pos)
				continue
			default:
				seq += rng.Uint64n(4)
			}
			block := accesses[rng.Intn(len(accesses))].Addr >> 6
			got, want := fresh.NextUseBlock(block, seq), reset.NextUseBlock(block, seq)
			if got != want {
				t.Fatalf("seed %d query %d: NextUseBlock(%d, %d) = %d on a fresh oracle, %d after ResetReplay",
					seed, q, block, seq, got, want)
			}
		}
	}
}
