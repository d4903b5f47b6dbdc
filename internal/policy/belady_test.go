package policy_test

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestOracleNextUse(t *testing.T) {
	accesses := seq(0, 1, 0, 2, 1, 0)
	o := policy.NewOracle(accesses, 64)
	cases := []struct {
		addr uint64
		seq  uint64
		want uint64
	}{
		{0, 0, 2}, // block 0 at idx 0 → next at 2
		{0, 2, 5}, // block 0 at idx 2 → next at 5
		{0, 5, policy.NeverUsed},
		{64, 1, 4}, // block 1 at idx 1 → next at 4
		{128, 3, policy.NeverUsed},
		{999 * 64, 0, policy.NeverUsed}, // never accessed
	}
	for _, c := range cases {
		if got := o.NextUse(c.addr, c.seq); got != c.want {
			t.Errorf("NextUse(%#x, %d) = %d, want %d", c.addr, c.seq, got, c.want)
		}
	}
	if o.Len() != 6 {
		t.Errorf("Len = %d, want 6", o.Len())
	}
}

// TestNewOracleAllocs pins the oracle's memory shape: a few flat arrays
// and the cursor map, with no per-block index. A per-block position list
// would cost several allocations per distinct block (over 90k on this
// 200k-access, 20k-block trace).
func TestNewOracleAllocs(t *testing.T) {
	rng := xrand.New(7)
	accesses := make([]trace.Access, 200_000)
	for i := range accesses {
		accesses[i] = trace.Access{Addr: rng.Uint64n(20_000) * 64, Type: trace.Load}
	}
	allocs := testing.AllocsPerRun(2, func() { policy.NewOracle(accesses, 64) })
	if allocs >= 1000 {
		t.Errorf("NewOracle made %.0f allocations, want fewer than 1000", allocs)
	}
}

func TestBeladyOptimalOnKnownSequence(t *testing.T) {
	// 2-way set, sequence 0 1 2 0 1 2 0 1 2 …: Belady keeps {0,1} then
	// rotates optimally achieving 1 hit per 3 accesses at steady state,
	// while LRU gets zero.
	var blocks []uint64
	for rep := 0; rep < 30; rep++ {
		blocks = append(blocks, 0, 1, 2)
	}
	accesses := seq(blocks...)
	o := policy.NewOracle(accesses, 64)
	bl := cachesim.RunPolicy(tiny(2), policy.NewBelady(o), accesses)
	lr := cachesim.RunPolicy(tiny(2), policy.MustNew("lru"), accesses)
	if lr.Hits != 0 {
		t.Errorf("LRU hits = %d, want 0", lr.Hits)
	}
	// Optimal: after the first 0,1 fills, each cycle of three accesses
	// yields exactly one hit.
	if bl.Hits < 25 {
		t.Errorf("Belady hits = %d, want >= 25", bl.Hits)
	}
}

func TestBeladyDominatesLRUProperty(t *testing.T) {
	// Belady (without bypass) is optimal among demand-fill policies: on any
	// trace its hit count must be >= LRU's, SRRIP's, and Random's.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2000
		accesses := make([]trace.Access, n)
		for i := range accesses {
			var b uint64
			switch rng.Intn(3) {
			case 0:
				b = uint64(rng.Intn(16)) // hot
			case 1:
				b = uint64(16 + rng.Intn(64)) // warm
			default:
				b = uint64(1000 + i) // cold stream
			}
			accesses[i] = trace.Access{PC: uint64(rng.Intn(8)), Addr: b * 64, Type: trace.Load}
		}
		cfg := cache.Config{Sets: 4, Ways: 4, LineSize: 64}
		o := policy.NewOracle(accesses, 64)
		bl := cachesim.RunPolicy(cfg, policy.NewBelady(o), accesses)
		for _, name := range []string{"lru", "srrip", "random"} {
			st := cachesim.RunPolicy(cfg, policy.MustNew(name), accesses)
			if st.Hits > bl.Hits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBeladyBypassAtLeastAsGood(t *testing.T) {
	// MIN (Belady with bypass) never does worse than Belady-no-bypass on
	// hit count for these traces.
	rng := xrand.New(1234)
	var accesses []trace.Access
	for i := 0; i < 5000; i++ {
		var b uint64
		if rng.Intn(2) == 0 {
			b = uint64(rng.Intn(8))
		} else {
			b = uint64(100 + i)
		}
		accesses = append(accesses, trace.Access{PC: 1, Addr: b * 64, Type: trace.Load})
	}
	o := policy.NewOracle(accesses, 64)
	noBp := cachesim.RunPolicy(tiny(4), policy.NewBelady(o), accesses)
	bp := cachesim.RunPolicy(tiny(4), policy.NewBeladyBypass(o), accesses)
	if bp.Hits < noBp.Hits {
		t.Errorf("Belady-bypass hits %d < Belady hits %d", bp.Hits, noBp.Hits)
	}
	if bp.Bypasses == 0 {
		t.Error("Belady-bypass never bypassed on a stream-heavy trace")
	}
}

func TestBeladyInitWithoutOraclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Belady.Init without oracle did not panic")
		}
	}()
	var b policy.Belady
	b.Init(policy.Config{})
}
