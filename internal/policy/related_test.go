package policy_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestRelatedWorkPoliciesRegistered(t *testing.T) {
	for _, name := range []string{"rwp", "cbr"} {
		p, err := policy.New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %s reports %s", name, p.Name())
		}
	}
}

// TestRelatedWorkPoliciesSane: every §II policy must survive a mixed
// random workload with the accounting invariants intact and a hit rate
// that is not catastrophically below LRU.
func TestRelatedWorkPoliciesSane(t *testing.T) {
	rng := xrand.New(33)
	cfg := cache.Config{Sets: 16, Ways: 4, LineSize: 64}
	var accesses []trace.Access
	for i := 0; i < 120000; i++ {
		var b uint64
		switch rng.Intn(3) {
		case 0:
			b = uint64(rng.Geometric(0.05)) // hot zipf-ish core
		case 1:
			b = uint64(64 + rng.Intn(256))
		default:
			b = uint64(10000 + i) // stream
		}
		ty := trace.Load
		if rng.Intn(5) == 0 {
			ty = trace.RFO
		}
		accesses = append(accesses, trace.Access{PC: uint64(rng.Intn(16)) * 4, Addr: b * 64, Type: ty})
	}
	lru := cachesim.RunPolicy(cfg, policy.MustNew("lru"), accesses)
	for _, name := range []string{"rwp", "cbr"} {
		st := cachesim.RunPolicy(cfg, policy.MustNew(name), accesses)
		if st.Accesses != lru.Accesses {
			t.Fatalf("%s processed %d accesses, want %d", name, st.Accesses, lru.Accesses)
		}
		if float64(st.Hits) < 0.5*float64(lru.Hits) {
			t.Errorf("%s hits %d collapsed versus LRU %d", name, st.Hits, lru.Hits)
		}
	}
}

func TestRWPPartitionsDirtyLines(t *testing.T) {
	// Skewed clean reads plus a dirty write stream: RWP should cap the
	// dirty partition so the clean read set stays resident, beating LRU on
	// read hits.
	cfg := cache.Config{Sets: 4, Ways: 8, LineSize: 64}
	rng := xrand.New(5)
	z := xrand.NewZipf(xrand.New(6), 48, 0.9)
	var accesses []trace.Access
	dirty := uint64(1 << 16)
	for rep := 0; rep < 6000; rep++ {
		for i := 0; i < 12; i++ {
			accesses = append(accesses, trace.Access{PC: 1, Addr: uint64(z.Next()) * 64, Type: trace.Load})
		}
		for k := 0; k < 16; k++ { // dirty write stream
			accesses = append(accesses, trace.Access{PC: 2, Addr: dirty * 64, Type: trace.RFO})
			dirty++
		}
		_ = rng
	}
	rwp := cachesim.RunPolicy(cfg, policy.MustNew("rwp"), accesses)
	lru := cachesim.RunPolicy(cfg, policy.MustNew("lru"), accesses)
	if rwp.HitsByType[trace.Load] <= lru.HitsByType[trace.Load] {
		t.Errorf("RWP read hits %d should beat LRU %d on clean-reuse + dirty-stream",
			rwp.HitsByType[trace.Load], lru.HitsByType[trace.Load])
	}
}

func TestCBRExpiresDeadLines(t *testing.T) {
	// Lines with short learned intervals expire quickly once dead; CBR
	// should beat LRU on a hot-set + scan mix after learning thresholds.
	// Phase A lets CBR learn the hot PC's interval under light scan
	// pressure (reuse distance 3 fits a 4-way set for everyone). Phase B
	// raises the pressure to 5 scans per round: LRU now loses every hot
	// line, while CBR's learned thresholds expire the dead scans and keep
	// the hot lines.
	cfg := cache.Config{Sets: 4, Ways: 4, LineSize: 64}
	var accesses []trace.Access
	scan := uint64(1 << 16)
	emit := func(reps, scansPerRep int) {
		for rep := 0; rep < reps; rep++ {
			for b := uint64(0); b < 4; b++ {
				accesses = append(accesses, trace.Access{PC: 0x10, Addr: b * 64, Type: trace.Load})
			}
			for k := 0; k < scansPerRep; k++ {
				accesses = append(accesses, trace.Access{PC: 0x20, Addr: scan * 64, Type: trace.Load})
				scan++
			}
		}
	}
	emit(1000, 8)  // phase A: 2 scans per set per round
	emit(4000, 20) // phase B: 5 scans per set per round
	cbr := cachesim.RunPolicy(cfg, policy.MustNew("cbr"), accesses)
	lru := cachesim.RunPolicy(cfg, policy.MustNew("lru"), accesses)
	if cbr.Hits <= lru.Hits {
		t.Errorf("CBR hits %d should beat LRU %d once thresholds are learned", cbr.Hits, lru.Hits)
	}
}
