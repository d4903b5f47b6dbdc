package core_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/trace"
)

func tiny(ways int) cache.Config { return cache.Config{Sets: 1, Ways: ways, LineSize: 64} }

func ld(block uint64) trace.Access {
	return trace.Access{PC: 0x400, Addr: block * 64, Type: trace.Load}
}

func pf(block uint64) trace.Access {
	return trace.Access{PC: 0x900, Addr: block * 64, Type: trace.Prefetch}
}

func TestRegisteredVariants(t *testing.T) {
	for _, name := range []string{"rlr", "rlr-unopt", "rlr-mc"} {
		p := policy.MustNew(name)
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
}

func TestNewPanicsOnBadOptions(t *testing.T) {
	cases := []core.Options{
		{AgeBits: 0, HitBits: 1, HitsPerRDUpdate: 32},
		{AgeBits: 2, HitBits: 0, HitsPerRDUpdate: 32},
		{AgeBits: 2, HitBits: 1, HitsPerRDUpdate: 0},
		// Victim's key needs a priority in [0, 2^24).
		{AgeBits: 2, HitBits: 1, HitsPerRDUpdate: 32, AgeWeight: -1},
		{AgeBits: 2, HitBits: 1, HitsPerRDUpdate: 32, AgeWeight: 1<<20 + 1},
	}
	for i, o := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, o)
				}
			}()
			core.New(o)
		}()
	}
}

func TestPrefetchedLinesEvictedFirst(t *testing.T) {
	// Insight 2: a line whose last access was a prefetch has the lowest
	// type priority and is evicted before demand lines of equal age.
	sim := cachesim.New(tiny(2), 1, policy.MustNew("rlr"))
	sim.Step(ld(0)) // demand fill
	sim.Step(pf(1)) // prefetch fill
	res := sim.Step(ld(2))
	if !res.Evicted || res.Victim.Block != 1 {
		t.Errorf("victim block = %d (evicted=%v), want prefetched block 1", res.Victim.Block, res.Evicted)
	}
}

func TestPrefetchReusePromotes(t *testing.T) {
	// A prefetched line that receives a demand hit flips its type register
	// and is protected over a never-touched prefetch.
	sim := cachesim.New(tiny(2), 1, policy.MustNew("rlr"))
	sim.Step(pf(0))
	sim.Step(ld(0)) // demand reuse of the prefetched line
	sim.Step(pf(1))
	res := sim.Step(ld(2))
	if !res.Evicted || res.Victim.Block != 1 {
		t.Errorf("victim block = %d, want non-reused prefetch block 1", res.Victim.Block)
	}
}

func TestHitLinesProtected(t *testing.T) {
	// Insight 3: between two demand lines of equal age/type, the one with a
	// hit is retained.
	sim := cachesim.New(tiny(2), 1, policy.MustNew("rlr"))
	sim.Step(ld(0))
	sim.Step(ld(1))
	sim.Step(ld(0)) // hit: block 0's hit register set
	res := sim.Step(ld(2))
	if !res.Evicted || res.Victim.Block != 1 {
		t.Errorf("victim block = %d, want never-hit block 1", res.Victim.Block)
	}
}

func TestRecencyTieBreakEvictsNewest(t *testing.T) {
	// Insight 4: with identical priorities, the most recently used line is
	// evicted. Train RD = 2 in set 0 (global predictor), then fill set 1
	// with two protected, never-hit demand lines: the newer one must go.
	// Unoptimized RLR has the exact recency stack for this tie-break.
	cfg := cache.Config{Sets: 2, Ways: 2, LineSize: 64}
	sim := cachesim.New(cfg, 1, policy.MustNew("rlr-unopt"))
	for i := 0; i < 70; i++ { // blocks 0,2 alternate in set 0: preuse 1 → RD 2
		sim.Step(ld(uint64(i%2) * 2))
	}
	sim.Step(ld(1)) // set 1, older
	sim.Step(ld(3)) // set 1, newer
	res := sim.Step(ld(5))
	if !res.Evicted || res.Victim.Block != 3 {
		t.Errorf("victim block = %d, want most recently inserted block 3", res.Victim.Block)
	}
}

func TestOptimizedTieBreakLowestWay(t *testing.T) {
	// §IV-C: the optimized design breaks age+priority ties toward the
	// lowest way index. Within one miss epoch both lines have age 0, no
	// hits, demand type: way 0's block is the victim.
	sim := cachesim.New(tiny(2), 1, policy.MustNew("rlr"))
	sim.Step(ld(0))
	sim.Step(ld(1))
	res := sim.Step(ld(2))
	if !res.Evicted || res.Victim.Block != 0 {
		t.Errorf("victim block = %d, want lowest-way block 0", res.Victim.Block)
	}
}

func TestRDUpdatesAfter32DemandHits(t *testing.T) {
	p := core.New(core.Unoptimized())
	cfg := cache.Config{Sets: 1, Ways: 8, LineSize: 64}
	sim := cachesim.New(cfg, 1, p)
	if p.RD() != 0 {
		t.Fatalf("initial RD = %d, want 0", p.RD())
	}
	// Alternate two blocks: every hit has preuse distance 1; after 32
	// demand hits RD = 2 × 1 = 2.
	for i := 0; i < 40; i++ {
		sim.Step(ld(uint64(i % 2)))
	}
	if p.RD() != 2 {
		t.Errorf("RD = %d, want 2 (= 2 × mean preuse 1)", p.RD())
	}
}

func TestRDMultiplierOption(t *testing.T) {
	o := core.Unoptimized()
	o.RDMultiplier = 4
	p := core.New(o)
	sim := cachesim.New(cache.Config{Sets: 1, Ways: 8, LineSize: 64}, 1, p)
	for i := 0; i < 40; i++ {
		sim.Step(ld(uint64(i % 2)))
	}
	if p.RD() != 4 {
		t.Errorf("RD = %d, want 4 with multiplier 4", p.RD())
	}
}

func TestAgePriorityProtectsYoungLines(t *testing.T) {
	// With RD learned at 2 set accesses (unopt), an old unprotected line
	// (age > RD, never hit) must be evicted over a newer protected one even
	// though the newer line is more recent (age priority dominates, weight 8).
	o := core.Unoptimized()
	o.UseHitPriority = false
	o.UseTypePriority = false
	p := core.New(o)
	sim := cachesim.New(cache.Config{Sets: 1, Ways: 4, LineSize: 64}, 1, p)
	// Learn RD=2: alternate blocks 0,1 (preuse 1) for 32 hits.
	for i := 0; i < 40; i++ {
		sim.Step(ld(uint64(i % 2)))
	}
	// Fill the remaining two ways: block 2 (will age out), then many
	// accesses to 0/1 to age it past RD, then block 3 (young).
	sim.Step(ld(2))
	for i := 0; i < 8; i++ {
		sim.Step(ld(uint64(i % 2)))
	}
	sim.Step(ld(3))
	// Next miss: block 2 has age > RD → priority 0; blocks 0,1 hit
	// recently; block 3 age <= RD → 8.
	res := sim.Step(ld(4))
	if !res.Evicted || res.Victim.Block != 2 {
		t.Errorf("victim block = %d, want aged-out block 2", res.Victim.Block)
	}
}

func TestBypassMode(t *testing.T) {
	o := core.Optimized()
	o.AllowBypass = true
	p := core.New(o)
	sim := cachesim.New(tiny(2), 1, p)
	sim.Step(ld(0))
	sim.Step(ld(1))
	// RD = 0 and both lines have age 0 (no epochs elapsed): nothing has
	// age > RD → bypass.
	res := sim.Step(ld(2))
	if !res.Bypassed {
		t.Errorf("expected bypass while no line exceeds RD, got %+v", res)
	}
	// Writebacks are never bypassed.
	res = sim.Step(trace.Access{Addr: 3 * 64, Type: trace.Writeback})
	if res.Bypassed {
		t.Error("writeback was bypassed")
	}
}

func TestOptimizedEpochAging(t *testing.T) {
	// Optimized RLR ages lines only once per 8 set misses. After 7 misses
	// the resident line still has age 0; after 8 it has age 1.
	p := core.New(core.Optimized())
	cfg := cache.Config{Sets: 1, Ways: 16, LineSize: 64}
	sim := cachesim.New(cfg, 1, p)
	sim.Step(ld(0))
	for b := uint64(1); b < 8; b++ { // 7 more misses (8 total)
		sim.Step(ld(b))
	}
	// 8 misses total → one epoch: ages advanced once. We can't read line
	// state directly, but with RD=0 a line with age 1 > RD becomes the
	// victim over age-0 lines. Fill remaining ways.
	for b := uint64(8); b < 16; b++ {
		sim.Step(ld(b))
	}
	// 16 misses = 2 epochs: block 0 has age 2, the newest lines age < 2.
	res := sim.Step(ld(100))
	if !res.Evicted {
		t.Fatal("no eviction on full set")
	}
	if res.Victim.Block >= 8 {
		t.Errorf("victim block = %d, want one of the older (aged) blocks", res.Victim.Block)
	}
}

func TestScanResistanceBeatsLRU(t *testing.T) {
	// The headline behaviour: a mixed hot + streaming workload where RLR's
	// age/hit protection beats LRU.
	cfg := cache.Config{Sets: 16, Ways: 4, LineSize: 64}
	var accesses []trace.Access
	scan := uint64(1 << 20)
	for rep := 0; rep < 800; rep++ {
		for b := uint64(0); b < 32; b++ {
			a := ld(b)
			accesses = append(accesses, a, a)
		}
		for k := 0; k < 96; k++ {
			accesses = append(accesses, ld(scan))
			scan++
		}
	}
	rlr := cachesim.RunPolicy(cfg, policy.MustNew("rlr"), accesses)
	lru := cachesim.RunPolicy(cfg, policy.MustNew("lru"), accesses)
	if rlr.Hits <= lru.Hits {
		t.Errorf("RLR (%d hits) should beat LRU (%d hits) on hot+scan", rlr.Hits, lru.Hits)
	}
}

func TestUnoptAtLeastAsGoodHere(t *testing.T) {
	// §V-B: RLR(unopt) outperforms RLR on average. On the hot+scan
	// microworkload the full-precision counters must not lose.
	cfg := cache.Config{Sets: 16, Ways: 4, LineSize: 64}
	var accesses []trace.Access
	scan := uint64(1 << 20)
	for rep := 0; rep < 500; rep++ {
		for b := uint64(0); b < 32; b++ {
			a := ld(b)
			accesses = append(accesses, a, a)
		}
		for k := 0; k < 48; k++ {
			accesses = append(accesses, ld(scan))
			scan++
		}
	}
	opt := cachesim.RunPolicy(cfg, policy.MustNew("rlr"), accesses)
	un := cachesim.RunPolicy(cfg, policy.MustNew("rlr-unopt"), accesses)
	if float64(un.Hits) < 0.9*float64(opt.Hits) {
		t.Errorf("RLR-unopt hits %d collapsed versus RLR %d", un.Hits, opt.Hits)
	}
}

func TestAblationVariantsRun(t *testing.T) {
	// The §V-B ablations (hit priority off, type priority off) must run and
	// differ from the full policy on a prefetch-heavy trace.
	cfg := cache.Config{Sets: 8, Ways: 4, LineSize: 64}
	var accesses []trace.Access
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0:
			accesses = append(accesses, ld(uint64(i%24)))
		case 1:
			accesses = append(accesses, pf(uint64(1000+i)))
		default:
			accesses = append(accesses, ld(uint64(i%48)))
		}
	}
	full := cachesim.RunPolicy(cfg, core.New(core.Optimized()), accesses)
	noType := core.Optimized()
	noType.UseTypePriority = false
	nt := cachesim.RunPolicy(cfg, core.New(noType), accesses)
	noHit := core.Optimized()
	noHit.UseHitPriority = false
	nh := cachesim.RunPolicy(cfg, core.New(noHit), accesses)
	if full.Accesses != nt.Accesses || full.Accesses != nh.Accesses {
		t.Fatal("ablation runs processed different access counts")
	}
	if full.Hits == 0 {
		t.Fatal("full RLR got zero hits on mixed trace")
	}
	t.Logf("full=%d noType=%d noHit=%d hits", full.Hits, nt.Hits, nh.Hits)
}

func TestMulticoreCorePriority(t *testing.T) {
	// Two cores share a 4-way set; core 0 produces demand hits, core 1
	// streams. After the core re-rank, core 1's lines must be preferred
	// victims even when other priorities tie.
	o := Optimizedmc()
	p := core.New(o)
	cfg := cache.Config{Sets: 2, Ways: 4, LineSize: 64}
	sim := cachesim.New(cfg, 2, p)
	scan := uint64(1 << 16)
	hits0, hits1 := 0, 0
	for rep := 0; rep < 4000; rep++ {
		for b := uint64(0); b < 4; b++ {
			a := trace.Access{PC: 1, Addr: b * 2 * 64, Type: trace.Load, Core: 0}
			if sim.Step(a).Hit {
				hits0++
			}
		}
		a := trace.Access{PC: 2, Addr: scan * 64, Type: trace.Load, Core: 1}
		scan += 2
		if sim.Step(a).Hit {
			hits1++
		}
	}
	if hits0 == 0 {
		t.Error("multicore RLR starved the high-hit core")
	}
	// Compare with single-core RLR on the same interleaved stream: the
	// core-aware variant should not do worse for the hot core.
	t.Logf("core0 hits=%d core1 hits=%d", hits0, hits1)
}

// Optimizedmc returns the multicore configuration used in tests.
func Optimizedmc() core.Options {
	o := core.Optimized()
	o.Multicore = true
	return o
}

func TestOverheadTableOne(t *testing.T) {
	cfg := cache.Config{Sets: 2048, Ways: 16, LineSize: 64} // 2MB 16-way
	cases := map[string]float64{
		"lru":       16.0,
		"drrip":     8.0,
		"rlr":       16.75,
		"rlr-unopt": 40.0,
	}
	for name, wantKB := range cases {
		o, err := core.PolicyOverhead(name, cfg)
		if err != nil {
			t.Fatalf("PolicyOverhead(%s): %v", name, err)
		}
		got := o.KB()
		// DRRIP carries a 10-bit PSEL beyond the paper's rounded figure.
		if got < wantKB-0.01 || got > wantKB+0.01 {
			t.Errorf("%s overhead = %.3fKB, want %.2fKB", name, got, wantKB)
		}
	}
}

func TestOverheadPCFlags(t *testing.T) {
	cfg := cache.Config{Sets: 2048, Ways: 16, LineSize: 64}
	for _, name := range []string{"ship", "ship++", "hawkeye", "mpppb", "glider"} {
		o, err := core.PolicyOverhead(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !o.UsesPC {
			t.Errorf("%s should be flagged as PC-based", name)
		}
	}
	for _, name := range []string{"lru", "drrip", "kpc-r", "rlr", "rlr-unopt"} {
		o, err := core.PolicyOverhead(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.UsesPC {
			t.Errorf("%s should not be flagged as PC-based", name)
		}
	}
	if _, err := core.PolicyOverhead("nope", cfg); err == nil {
		t.Error("unknown policy overhead did not error")
	}
}

func TestTableOneOrderingRLRCheaperThanPCPolicies(t *testing.T) {
	cfg := cache.Config{Sets: 2048, Ways: 16, LineSize: 64}
	rows := core.TableOne(cfg)
	byName := map[string]core.Overhead{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	rlr := byName["rlr"]
	for _, pc := range []string{"mpppb", "hawkeye", "ship++", "glider"} {
		if byName[pc].KB() <= rlr.KB() {
			t.Errorf("Table I shape violated: %s (%.1fKB) <= rlr (%.2fKB)", pc, byName[pc].KB(), rlr.KB())
		}
	}
	if len(rows) != 10 {
		t.Errorf("TableOne rows = %d, want 10", len(rows))
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := cache.Config{Sets: 8, Ways: 4, LineSize: 64}
	mk := func(name string) cachesim.Stats {
		var accesses []trace.Access
		for i := 0; i < 30000; i++ {
			ty := trace.Load
			if i%7 == 0 {
				ty = trace.Prefetch
			}
			accesses = append(accesses, trace.Access{
				PC: uint64(i % 11), Addr: uint64((i * 13) % 300 * 64), Type: ty,
			})
		}
		return cachesim.RunPolicy(cfg, policy.MustNew(name), accesses)
	}
	for _, name := range []string{"rlr", "rlr-unopt"} {
		if a, b := mk(name), mk(name); a != b {
			t.Errorf("%s not deterministic", name)
		}
	}
}
