package cachesim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cache"
	_ "repro/internal/core" // registers the rlr policy variants
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// poolTrace returns n seeded accesses over a hot pool and a cold stream,
// with every access type, so replays hit, miss, evict and bypass.
func poolTrace(seed uint64, n int) []trace.Access {
	rng := xrand.New(seed)
	accs := make([]trace.Access, n)
	for i := range accs {
		block := rng.Uint64n(2048)
		if rng.Intn(3) == 0 {
			block = 1<<20 + uint64(i)
		}
		accs[i] = trace.Access{
			PC:   rng.Uint64n(32) * 4,
			Addr: block * 64,
			Type: trace.AccessType(rng.Intn(int(trace.NumAccessTypes))),
		}
	}
	return accs
}

// poolPolicy builds a fresh policy by name; "belady" reads an oracle of
// accs.
func poolPolicy(name string, accs []trace.Access, lineSize uint64) policy.Policy {
	if name == "belady" {
		return policy.NewBelady(policy.NewOracle(accs, lineSize))
	}
	return policy.MustNew(name)
}

var poolGeometries = []cache.Config{
	{Sets: 64, Ways: 16, LineSize: 64},
	{Sets: 32, Ways: 4, LineSize: 64},
}

// TestRunPolicyMatchesNew: a replay on a pooled, reset cache returns the
// statistics of a replay on a fresh one, with the geometry alternating
// between calls (so pooled caches are both reused and dropped).
func TestRunPolicyMatchesNew(t *testing.T) {
	for round := uint64(0); round < 3; round++ {
		for gi, cfg := range poolGeometries {
			accs := poolTrace(10*round+uint64(gi), 6000)
			for _, name := range []string{"lru", "drrip", "ship", "hawkeye", "rlr", "pdp", "belady"} {
				want := New(cfg, 1, poolPolicy(name, accs, cfg.LineSize)).Run(accs)
				if got := RunPolicy(cfg, poolPolicy(name, accs, cfg.LineSize), accs); got != want {
					t.Fatalf("round %d, %dx%d, %s: RunPolicy %+v, New+Run %+v",
						round, cfg.Sets, cfg.Ways, name, got, want)
				}
			}
		}
	}
}

// TestRunPolicyConcurrent: replays from several goroutines share the pool
// and still return a fresh cache's statistics (make race runs it under
// the race detector).
func TestRunPolicyConcurrent(t *testing.T) {
	accs := poolTrace(3, 4000)
	names := []string{"lru", "hawkeye", "ship"}
	want := map[string]Stats{}
	for _, cfg := range poolGeometries {
		for _, name := range names {
			want[key(cfg, name)] = New(cfg, 1, policy.MustNew(name)).Run(accs)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				cfg := poolGeometries[(g+i)%len(poolGeometries)]
				name := names[(g+i)%len(names)]
				if got := RunPolicy(cfg, policy.MustNew(name), accs); got != want[key(cfg, name)] {
					errs <- key(cfg, name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for k := range errs {
		t.Errorf("%s: a concurrent RunPolicy differs from a fresh replay", k)
	}
}

func key(cfg cache.Config, name string) string {
	return fmt.Sprintf("%s@%dx%d", name, cfg.Sets, cfg.Ways)
}

// TestRunPolicyReusesCache guards the free list: once warm, a RunPolicy
// replay under LRU allocates its simulator, not a cache (a 64×16 cache is
// ~90 KB of lines in 66 objects), also when GC cycles run between
// replays; and every llc-zoo policy, built afresh for each replay, keeps
// its per-set state in a handful of objects.
func TestRunPolicyReusesCache(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := poolGeometries[0]
	accs := poolTrace(5, 4000)
	lru := policy.MustNew("lru")
	RunPolicy(cfg, lru, accs) // warm the free list
	allocs := testing.AllocsPerRun(20, func() { RunPolicy(cfg, lru, accs) })
	if allocs > 4 {
		t.Errorf("RunPolicy allocates %.1f objects per replay, want at most 4", allocs)
	}
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if i%4 == 0 {
			runtime.GC()
		}
		RunPolicy(cfg, lru, accs)
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4096 {
		t.Errorf("RunPolicy allocates %d bytes per replay, want at most 4096", perRun)
	}
	for _, name := range []string{"lru", "drrip", "ship", "hawkeye", "rlr"} {
		allocs := testing.AllocsPerRun(5, func() { RunPolicy(cfg, policy.MustNew(name), accs) })
		if allocs > 16 {
			t.Errorf("%s: RunPolicy with a new policy allocates %.1f objects per replay, want at most 16", name, allocs)
		}
	}
}
