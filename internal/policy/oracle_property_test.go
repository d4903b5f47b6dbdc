package policy_test

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/refmodel"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// TestOracleProperties checks the future-knowledge index against a naive
// O(n²) scan on random traces.
func TestOracleProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 50 + rng.Intn(200)
		accesses := make([]trace.Access, n)
		for i := range accesses {
			accesses[i] = trace.Access{Addr: rng.Uint64n(20) * 64, Type: trace.Load}
		}
		o := policy.NewOracle(accesses, 64)
		for probe := 0; probe < 30; probe++ {
			seq := uint64(rng.Intn(n))
			addr := accesses[rng.Intn(n)].Addr
			got := o.NextUse(addr, seq)
			// Naive scan.
			want := uint64(policy.NeverUsed)
			for j := int(seq) + 1; j < n; j++ {
				if accesses[j].Addr>>6 == addr>>6 {
					want = uint64(j)
					break
				}
			}
			if got != want {
				return false
			}
			if got != policy.NeverUsed && got <= seq {
				return false // NextUse must be strictly in the future
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestOracleInOrderMatchesNaive drives the chain+cursor fast path exactly
// the way a simulator does — non-decreasing sequence numbers, several
// queries per position — and checks every answer against a naive forward
// scan. A mid-trace ResetReplay re-runs the prefix to cover epoch restarts.
func TestOracleInOrderMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 50 + rng.Intn(200)
		accesses := make([]trace.Access, n)
		for i := range accesses {
			accesses[i] = trace.Access{Addr: rng.Uint64n(20) * 64, Type: trace.Load}
		}
		o := policy.NewOracle(accesses, 64)
		naive := func(block, seq uint64) uint64 {
			for j := int(seq) + 1; j < n; j++ {
				if accesses[j].Addr>>6 == block {
					return uint64(j)
				}
			}
			return uint64(policy.NeverUsed)
		}
		sweep := func() bool {
			for seq := uint64(0); seq < uint64(n); seq++ {
				for q := 0; q < 3; q++ {
					block := rng.Uint64n(22) // may include never-accessed blocks
					if o.NextUseBlock(block, seq) != naive(block, seq) {
						return false
					}
				}
				// The access's own block — the Belady bypass query.
				own := accesses[seq].Addr >> 6
				if o.NextUseBlock(own, seq) != naive(own, seq) {
					return false
				}
				if o.NextUseBlock(own, seq) != o.NextAfter(seq) {
					return false
				}
			}
			return true
		}
		if !sweep() {
			return false
		}
		o.ResetReplay() // second epoch must see identical answers
		return sweep()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// randomTrace builds a mixed hot/warm/cold trace for replay equivalence
// tests.
func randomTrace(rng *xrand.Rand, n int) []trace.Access {
	accesses := make([]trace.Access, n)
	for i := range accesses {
		var b uint64
		switch rng.Intn(3) {
		case 0:
			b = rng.Uint64n(16)
		case 1:
			b = 32 + rng.Uint64n(64)
		default:
			b = 1000 + uint64(i)
		}
		accesses[i] = trace.Access{PC: rng.Uint64n(8), Addr: b * 64, Type: trace.AccessType(rng.Intn(4))}
	}
	return accesses
}

// TestBeladyChainMatchesMapRef replays random traces under the chain-driven
// Belady and the test-only map+binary-search reference; every statistic must
// be identical, with and without bypass.
func TestBeladyChainMatchesMapRef(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		accesses := randomTrace(rng, 1000+rng.Intn(1500))
		cfg := cache.Config{Sets: 4, Ways: 4, LineSize: 64}
		o := policy.NewOracle(accesses, 64)
		chain := cachesim.RunPolicy(cfg, policy.NewBelady(o), accesses)
		mapref := cachesim.RunPolicy(cfg, policy.NewBeladyMapRef(o), accesses)
		if chain != mapref {
			t.Logf("no-bypass stats diverge: chain=%+v mapref=%+v", chain, mapref)
			return false
		}
		chainBp := cachesim.RunPolicy(cfg, policy.NewBeladyBypass(o), accesses)
		maprefBp := cachesim.RunPolicy(cfg, policy.NewBeladyMapRefBypass(o), accesses)
		if chainBp != maprefBp {
			t.Logf("bypass stats diverge: chain=%+v mapref=%+v", chainBp, maprefBp)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBeladyBypassMatchesMapRef cross-checks the production Belady bypass,
// the map+binary-search reference and refmodel's forward-scanning MIN on
// the same uniform-conflict traces: three independent derivations of MIN
// must report identical statistics.
func TestBeladyBypassMatchesMapRef(t *testing.T) {
	cfg := cache.Config{Sets: 8, Ways: 4, LineSize: 64}
	uniform := refmodel.Classes()[0]
	pair, ok := refmodel.PairByName("belady-bypass")
	if uniform.Name != "uniform" || !ok {
		t.Fatalf("refmodel trace class %q / belady-bypass pair %v: fixtures moved", uniform.Name, ok)
	}
	for seed := uint64(0); seed < 4; seed++ {
		tr := uniform.Gen(seed, 600)
		chain := cachesim.RunPolicy(cfg, policy.NewBeladyBypass(policy.NewOracle(tr, cfg.LineSize)), tr)
		mapref := cachesim.RunPolicy(cfg, policy.NewBeladyMapRefBypass(policy.NewOracle(tr, cfg.LineSize)), tr)
		if chain != mapref {
			t.Fatalf("seed %d: chain stats %+v != mapref stats %+v", seed, chain, mapref)
		}
		if d := refmodel.Diff(pair, cfg, tr); d != nil {
			t.Fatalf("seed %d: reference disagrees:\n%s", seed, d)
		}
	}
}

// FuzzOracleChainVsMap checks the oracle's cursor queries against a naive
// forward scan on fuzzed trace shapes and query orders. Its backward jumps
// exercise the rewind (a query behind the cursor resets it and walks
// forward again).
func FuzzOracleChainVsMap(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(7))
	f.Fuzz(func(t *testing.T, seed, querySeed uint64) {
		rng := xrand.New(seed)
		n := 20 + rng.Intn(300)
		accesses := make([]trace.Access, n)
		for i := range accesses {
			accesses[i] = trace.Access{Addr: rng.Uint64n(1+seed%40) * 64, Type: trace.Load}
		}
		// The oracle takes the queries in a fuzzed order, mixing in-order
		// steps with rewinds; a naive forward scan is the ground truth.
		o := policy.NewOracle(accesses, 64)
		qrng := xrand.New(querySeed)
		seq := uint64(0)
		for q := 0; q < 200; q++ {
			if qrng.Intn(4) == 0 { // jump backwards: the cursor rewinds
				seq = qrng.Uint64n(uint64(n))
			} else if seq+1 < uint64(n) && qrng.Intn(2) == 0 {
				seq++ // in-order step
			}
			block := qrng.Uint64n(2 + seed%40)
			got := o.NextUseBlock(block, seq)
			want := refNextUse(accesses, block, seq)
			if got != want {
				t.Fatalf("NextUseBlock(%d,%d) = %d, want %d", block, seq, got, want)
			}
		}
	})
}

// refNextUse answers a next-use query with a naive forward scan.
func refNextUse(accesses []trace.Access, block, seq uint64) uint64 {
	for j := seq + 1; j < uint64(len(accesses)); j++ {
		if accesses[j].Addr>>6 == block {
			return j
		}
	}
	return uint64(policy.NeverUsed)
}

// TestBeladyMatchesExhaustiveOnTinyTrace compares Belady's hit count with
// the best achievable by exhaustive search over all eviction choices, on a
// trace small enough to brute-force. MIN is optimal, so they must agree.
func TestBeladyMatchesExhaustiveOnTinyTrace(t *testing.T) {
	// 1 set, 2 ways, 10 accesses over 4 blocks.
	rng := xrand.New(99)
	for trial := 0; trial < 10; trial++ {
		accesses := make([]trace.Access, 10)
		for i := range accesses {
			accesses[i] = trace.Access{Addr: rng.Uint64n(4) * 64, Type: trace.Load}
		}
		best := bruteForceHits(accesses, 2)
		o := policy.NewOracle(accesses, 64)
		bl := runTinySim(accesses, policy.NewBelady(o))
		if bl != best {
			t.Errorf("trial %d: Belady hits %d, exhaustive optimum %d (trace %v)",
				trial, bl, best, blocksOf(accesses))
		}
	}
}

func blocksOf(accesses []trace.Access) []uint64 {
	out := make([]uint64, len(accesses))
	for i, a := range accesses {
		out[i] = a.Addr / 64
	}
	return out
}

// bruteForceHits explores every eviction decision sequence for a 1-set
// ways-way cache (demand fill, no bypass) and returns the max hit count.
func bruteForceHits(accesses []trace.Access, ways int) int {
	var rec func(idx int, resident []uint64) int
	rec = func(idx int, resident []uint64) int {
		if idx == len(accesses) {
			return 0
		}
		blk := accesses[idx].Addr / 64
		for _, r := range resident {
			if r == blk {
				return 1 + rec(idx+1, resident)
			}
		}
		if len(resident) < ways {
			return rec(idx+1, append(append([]uint64(nil), resident...), blk))
		}
		best := 0
		for v := 0; v < ways; v++ {
			next := append([]uint64(nil), resident...)
			next[v] = blk
			if h := rec(idx+1, next); h > best {
				best = h
			}
		}
		return best
	}
	return rec(0, nil)
}

// runTinySim replays accesses through a 1-set 2-way cache and returns the
// hit count.
func runTinySim(accesses []trace.Access, p policy.Policy) int {
	cfg := cache.Config{Sets: 1, Ways: 2, LineSize: 64}
	return int(cachesim.RunPolicy(cfg, p, accesses).Hits)
}
