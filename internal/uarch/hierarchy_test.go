package uarch

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// TestWritebackCascade: dirtying lines in L1 and then thrashing them out
// must surface WB accesses at the LLC (the §III-A writeback traffic).
func TestWritebackCascade(t *testing.T) {
	cfg := DefaultConfig(1)
	h := NewHierarchy(cfg, nil)
	var wb int
	h.SetLLCObserver(func(a trace.Access, hit bool) {
		if a.Type == trace.Writeback {
			wb++
		}
	})
	// Dirty a large region (stores), then stream far past it so the dirty
	// lines are evicted from L1 → L2 → eventually from L2 → LLC WB.
	now := uint64(0)
	for b := uint64(0); b < 16384; b++ {
		now = h.AccessData(0, 0x400, b*64, true, now)
	}
	for b := uint64(1 << 20); b < 1<<20+16384; b++ {
		now = h.AccessData(0, 0x404, b*64, false, now)
	}
	if wb == 0 {
		t.Error("no writebacks reached the LLC after dirty-evict churn")
	}
}

// TestMSHRMergesInflightMisses: two back-to-back accesses to the same
// missing block must not both pay the full DRAM latency.
func TestMSHRMergesInflightMisses(t *testing.T) {
	cfg := DefaultConfig(1)
	h := NewHierarchy(cfg, nil)
	addr := uint64(0xABC0000)
	done1 := h.accessL2(0, 1, addr, trace.Load, 0)
	// Second L2 access at time 1 while the first is in flight: the MSHR
	// entry must return (roughly) the same completion time.
	done2 := h.accessL2(0, 1, addr, trace.Load, 1)
	if done2 > done1 {
		t.Errorf("merged miss completes at %d, after the original %d", done2, done1)
	}
	if done1 < cfg.DRAMLatency {
		t.Errorf("first miss completed in %d cycles, below DRAM latency %d", done1, cfg.DRAMLatency)
	}
}

// TestHitLatencies: an L1 hit costs L1 latency; an L2 hit costs L1+L2.
func TestHitLatencies(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.L1NextLine = false
	cfg.L2Prefetcher = "none"
	h := NewHierarchy(cfg, nil)
	addr := uint64(0x5000)
	h.AccessData(0, 1, addr, false, 0) // miss: fills all levels
	start := uint64(1000)
	if got := h.AccessData(0, 1, addr, false, start); got != start+cfg.L1DLatency {
		t.Errorf("L1 hit latency = %d, want %d", got-start, cfg.L1DLatency)
	}
	// Evict from L1 only: fill 9 conflicting blocks (L1 has 64 sets ⇒
	// stride 64×64 bytes aliases set 0 but not L2's 512 sets… use enough
	// conflicting blocks for both L1 sets and probe).
	h.l1d[0].c.Invalidate(addr)
	if got := h.AccessData(0, 1, addr, false, start); got != start+cfg.L1DLatency+cfg.L2Latency {
		t.Errorf("L2 hit latency = %d, want %d", got-start, cfg.L1DLatency+cfg.L2Latency)
	}
}

// TestPrefetchDoesNotChargeCore: issuing prefetches must not change the
// demand access's completion time directly (they run off the critical
// path).
func TestPrefetchDoesNotChargeCore(t *testing.T) {
	with := DefaultConfig(1)
	without := DefaultConfig(1)
	without.L1NextLine = false
	without.L2Prefetcher = "none"
	a := NewHierarchy(with, nil)
	b := NewHierarchy(without, nil)
	// First-touch miss: identical latency with and without prefetchers.
	da := a.AccessData(0, 1, 0x9000, false, 0)
	db := b.AccessData(0, 1, 0x9000, false, 0)
	if da != db {
		t.Errorf("prefetcher changed demand completion: %d vs %d", da, db)
	}
}

// TestScaledConfigShrinks: the scaled config must preserve associativity
// and latency while dividing sets.
func TestScaledConfigShrinks(t *testing.T) {
	base := DefaultConfig(1)
	s := ScaledConfig(1, 4)
	if s.LLC.Sets != base.LLC.Sets/4 || s.LLC.Ways != base.LLC.Ways {
		t.Errorf("scaled LLC = %+v", s.LLC)
	}
	if s.LLCLatency != base.LLCLatency {
		t.Error("scaling changed latency")
	}
	if ScaledConfig(1, 1).LLC.Sets != base.LLC.Sets {
		t.Error("factor 1 should be identity")
	}
}

// TestKPCPPollutionGate: low-confidence prefetches must reach the LLC but
// not L2.
func TestKPCPPollutionGate(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.L2Prefetcher = "kpc-p"
	cfg.L1NextLine = false
	h := NewHierarchy(cfg, nil)
	kp := h.KPCPFor(0)
	if kp == nil {
		t.Fatal("KPC-P not wired")
	}
	// Train a weak stride (3 accesses → conf 2, below the L2 threshold).
	base := uint64(0x100000)
	now := uint64(0)
	for i := uint64(0); i < 4; i++ {
		now = h.AccessData(0, 0x777, base+i*128, false, now)
	}
	// Find a prefetched block: the next stride targets.
	pfAddr := base + 5*128
	_, _, inLLC := h.llc.c.Probe(pfAddr)
	_, _, inL2 := h.l2[0].c.Probe(pfAddr)
	if inLLC && inL2 && !kp.FillL2(pfAddr) {
		t.Error("low-confidence prefetch installed in L2 despite the gate")
	}
}

// TestLLCMergedMissUpdatesTimingOnly: an LLC miss whose block is already in
// flight (MSHR hit) must merge into the outstanding fetch — completing at
// the original fetch's ready time without re-driving the replacement policy
// (no second fill) and without double-counting the demand miss. Regression:
// accessLLC used to fall through to RecordMissTouch → Victim/Fill/Update on
// merged misses, so one memory fetch could fill twice.
func TestLLCMergedMissUpdatesTimingOnly(t *testing.T) {
	cfg := DefaultConfig(1)
	// Tiny 2x2 LLC so two conflicting fills evict the in-flight block while
	// its fetch is still outstanding.
	cfg.LLC = cache.Config{Sets: 2, Ways: 2, LineSize: 64}
	h := NewHierarchy(cfg, nil)
	// Block A misses at t=0: fills, MSHR entry ready at LLCLatency+DRAMLatency.
	a := uint64(0)
	done1 := h.accessLLC(0, 1, a, trace.Load, 0)
	// Two conflicting blocks in set 0 (2 sets, 64B lines: stride 128B) evict A.
	h.accessLLC(0, 1, 0x80, trace.Load, 1)
	h.accessLLC(0, 1, 0x100, trace.Load, 2)
	if _, _, hit := h.llc.c.Probe(a); hit {
		t.Fatal("test setup broken: block A still resident after two conflicting fills")
	}
	before := h.Stats()
	// A misses again inside the DRAM latency window: must merge.
	done2 := h.accessLLC(0, 1, a, trace.Load, 3)
	after := h.Stats()
	if done2 != done1 {
		t.Errorf("merged miss completes at %d, want the original fetch's %d", done2, done1)
	}
	if after.DemandMisses != before.DemandMisses {
		t.Errorf("merged miss double-counted: demand misses %d -> %d",
			before.DemandMisses, after.DemandMisses)
	}
	if after.Accesses != before.Accesses+1 {
		t.Errorf("merged miss must still count as an LLC access: %d -> %d",
			before.Accesses, after.Accesses)
	}
	if _, _, hit := h.llc.c.Probe(a); hit {
		t.Error("merged miss re-filled the block (policy re-driven for one fetch)")
	}
}

// TestMSHRPressureSweepKeepsInflight: the pressure sweep in
// mshrTable.insert must drop only entries that have already completed
// (ready <= now), never entries that merely complete before the new miss.
// Regression: the sweep compared against the new miss's future ready time,
// dropping every still-in-flight entry and re-charging later merges full
// DRAM latency.
func TestMSHRPressureSweepKeepsInflight(t *testing.T) {
	l := newLevel(cache.Config{Sets: 2, Ways: 2, LineSize: 64}, 4, 4)
	// Four in-flight fetches completing at t=100.
	for i := uint64(0); i < 4; i++ {
		l.mshr.insert(i<<6, 0, 100)
	}
	// A fifth miss at t=10 completing far in the future: the table is at its
	// MSHR bound, but none of the resident entries has completed yet.
	l.mshr.insert(5<<6, 10, 500)
	if _, ok := l.mshr.lookup(1<<6, 50); !ok {
		t.Error("in-flight MSHR entry dropped by the pressure sweep")
	}
	// Entries that HAVE completed are swept: re-fill the table at t=200
	// (after the first four completed) and check one of them is gone.
	l.mshr.insert(6<<6, 200, 700)
	if _, ok := l.mshr.peek(2 << 6); ok {
		t.Error("completed MSHR entry survived a pressure sweep")
	}
}

// TestInstrFetchMergeNearReadyStaysSane: an L1I fetch that merges into an
// in-flight miss completing less than L1ILatency cycles later must not
// move the issue point backward. Regression: the penalty was computed as
// done-issue-L1ILatency in uint64; when 0 < done-issue < L1ILatency the
// wraparound landed issue on done-L1ILatency — *earlier* than it was — so
// the instruction (and any load it carries) issued before its own
// ROB/width-constrained slot.
func TestInstrFetchMergeNearReadyStaysSane(t *testing.T) {
	cfg := DefaultConfig(1)
	sys := NewSystem(cfg, nil)
	c := sys.cores[0]
	pc := uint64(0x400000)
	data := uint64(0x900000)
	// Prime the load's block into L1D so its timing below is a pure L1 hit.
	sys.h.AccessData(0, pc, data, false, 0)
	// First fetch at t=0 misses everywhere: in flight until ~L1+L2+LLC+DRAM.
	c.step(sys.h, 0, trace.Instr{PC: pc, Kind: trace.MemNone})
	ready, ok := sys.h.l1i[0].mshr.peek(pc)
	if !ok {
		t.Fatal("first fetch left no MSHR entry")
	}
	// Evict the block from L1I (it filled at miss time) and reset the
	// core's fetch block so the next step re-fetches.
	sys.h.l1i[0].c.Invalidate(pc)
	c.fetchBlock = ^uint64(0)
	// Re-issue the fetch 2 cycles before the in-flight entry's ready time:
	// the merged done-issue gap is below L1ILatency, so the fetch must not
	// stall issue — and must not pull it backward either.
	issue := ready - 2
	c.issued = c.width * issue // forces issue = ready-2
	c.retire = make([]uint64, cfg.ROBSize)
	c.lastRetire = issue
	c.step(sys.h, 0, trace.Instr{PC: pc, Addr: data, Kind: trace.MemLoad})
	if want := issue + cfg.L1DLatency; c.lastLoad != want {
		t.Errorf("load after near-ready fetch merge completed at %d, want %d (issue must not move backward)",
			c.lastLoad, want)
	}
	if c.lastRetire > ready+cfg.L1ILatency+1 {
		t.Errorf("near-ready fetch merge exploded: retire %d, fetch was ready at %d",
			c.lastRetire, ready)
	}
}

// peek returns addr's entry without lookup's drop of a completed entry.
func (t *mshrTable) peek(addr uint64) (uint64, bool) {
	i, ok := t.find(addr>>6 + 1)
	if !ok {
		return 0, false
	}
	return t.slab[t.index[i].pos].ready, true
}

// mapMSHR is the map-based MSHR table that mshrTable replaced, kept as the
// reference for TestMSHRTableMatchesMapReference. Its pressure sweep visits
// every entry; sweeps and clears count how often each rule fired.
type mapMSHR struct {
	inflight       map[uint64]uint64 // block → ready time
	mshrs          int
	sweeps, clears int
}

func (l *mapMSHR) mshrLookup(addr, now uint64) (uint64, bool) {
	ready, ok := l.inflight[addr>>6]
	if !ok {
		return 0, false
	}
	if ready <= now {
		delete(l.inflight, addr>>6)
		return 0, false
	}
	return ready, true
}

func (l *mapMSHR) mshrInsert(addr, now, ready uint64) {
	if len(l.inflight) >= l.mshrs {
		l.sweeps++
		for k, v := range l.inflight {
			if v <= now {
				delete(l.inflight, k)
			}
		}
		if len(l.inflight) >= 4*l.mshrs {
			l.clears++
			l.inflight = make(map[uint64]uint64)
		}
	}
	l.inflight[addr>>6] = ready
}

// checkMSHRTable fails unless tab holds exactly ref's entries, low bounds
// every entry's ready time, and its slab and index point at each other.
func checkMSHRTable(t *testing.T, step int, tab *mshrTable, ref *mapMSHR) {
	t.Helper()
	if len(tab.slab) != len(ref.inflight) {
		t.Fatalf("step %d: %d entries, reference has %d", step, len(tab.slab), len(ref.inflight))
	}
	for block, want := range ref.inflight {
		if got, ok := tab.peek(block << 6); !ok || got != want {
			t.Fatalf("step %d: block %#x holds (%d, %v), reference %d", step, block, got, ok, want)
		}
	}
	for pos, e := range tab.slab {
		if e.ready < tab.low {
			t.Fatalf("step %d: slab entry %d is ready at %d, below the watermark %d", step, pos, e.ready, tab.low)
		}
		if tab.index[e.slot].pos != uint32(pos) {
			t.Fatalf("step %d: slab entry %d and its index slot disagree", step, pos)
		}
	}
}

// TestMSHRWatermarkStaleCases: the watermark low may sit below every entry
// once the entry that held the minimum is gone. (a) After a lookup drops
// that entry, the next sweep must still drop every completed entry and
// recompute low from the survivors. (b) Re-inserting a resident block with
// an earlier ready time must lower low, or the sweep would skip it. (c) A
// table at its bound whose entries are all in flight (now < low) does no
// scan, so a stale low stays as it was.
func TestMSHRWatermarkStaleCases(t *testing.T) {
	t.Run("lookup drops the minimum", func(t *testing.T) {
		tab := newMSHRTable(4)
		for b, ready := range []uint64{10, 20, 30, 40, 50} {
			tab.insert(uint64(b)<<6, 0, ready)
		}
		if _, ok := tab.lookup(0, 15); ok {
			t.Fatal("lookup at 15 kept the entry ready at 10")
		}
		if tab.low != 10 {
			t.Fatalf("low = %d after the lookup, want the stale 10", tab.low)
		}
		tab.insert(9<<6, 35, 100)
		for b, want := range []bool{false, false, false, true, true} {
			if _, ok := tab.peek(uint64(b) << 6); ok != want {
				t.Errorf("block %d resident = %v after the sweep at 35, want %v", b, ok, want)
			}
		}
		if tab.low != 40 {
			t.Errorf("low = %d after the sweep, want 40", tab.low)
		}
	})
	t.Run("resident block gets an earlier ready time", func(t *testing.T) {
		tab := newMSHRTable(4)
		for b, ready := range []uint64{100, 200, 300, 400} {
			tab.insert(uint64(b)<<6, 0, ready)
		}
		tab.insert(3<<6, 0, 50)
		if tab.low != 50 {
			t.Fatalf("low = %d after re-inserting a block ready at 50, want 50", tab.low)
		}
		tab.insert(9<<6, 60, 700)
		if _, ok := tab.peek(3 << 6); ok {
			t.Error("re-inserted block ready at 50 survived the sweep at 60")
		}
		if _, ok := tab.peek(0); !ok {
			t.Error("block ready at 100 was swept at 60")
		}
	})
	t.Run("all in flight at the bound", func(t *testing.T) {
		tab := newMSHRTable(4)
		for b, ready := range []uint64{100, 200, 300, 400} {
			tab.insert(uint64(b)<<6, 0, ready)
		}
		tab.lookup(0, 150) // drops the entry ready at 100; low stays 100
		tab.insert(4<<6, 50, 250)
		tab.insert(5<<6, 60, 500) // at the bound, but 60 < low
		if tab.low != 100 {
			t.Errorf("low = %d, want the stale 100: the insert at 60 scanned", tab.low)
		}
		if len(tab.slab) != 5 {
			t.Errorf("%d entries, want 5", len(tab.slab))
		}
	})
}

// TestMSHRTableMatchesMapReference drives mshrTable and the map-based
// reference with the same seeded operations — repeated blocks, ready times
// at or before now, and now jumping backwards (writebacks run at time 0) —
// and requires identical lookups and contents after every step, with both
// the pressure sweep and the 4x clear exercised.
func TestMSHRTableMatchesMapReference(t *testing.T) {
	for _, mshrs := range []int{1, 4, 64} {
		t.Run(fmt.Sprint(mshrs), func(t *testing.T) {
			rng := xrand.New(uint64(mshrs))
			tab := newMSHRTable(mshrs)
			ref := &mapMSHR{inflight: map[uint64]uint64{}, mshrs: mshrs}
			// A block pool larger than 4*mshrs, part sequential and part
			// scattered, with block 0 in it.
			pool := make([]uint64, 6*mshrs+8)
			for i := range pool {
				if i%2 == 0 {
					pool[i] = uint64(i)
				} else {
					pool[i] = rng.Uint64() >> 6
				}
			}
			now, maxLat := uint64(0), uint64(20)
			for step := 0; step < 40000; step++ {
				if step%500 == 0 {
					maxLat = []uint64{20, 300, 5000}[rng.Intn(3)]
				}
				switch r := rng.Intn(100); {
				case r < 2:
					now = 0
				case r < 5:
					now -= min(now, rng.Uint64n(2*maxLat))
				default:
					now += rng.Uint64n(4)
				}
				addr := pool[rng.Intn(len(pool))]<<6 | rng.Uint64n(64)
				if rng.Intn(2) == 0 {
					got, gotOK := tab.lookup(addr, now)
					want, wantOK := ref.mshrLookup(addr, now)
					if got != want || gotOK != wantOK {
						t.Fatalf("step %d: lookup(%#x, %d) = (%d, %v), reference (%d, %v)",
							step, addr, now, got, gotOK, want, wantOK)
					}
				} else {
					ready := now + rng.Uint64n(maxLat) - min(now, 2)
					tab.insert(addr, now, ready)
					ref.mshrInsert(addr, now, ready)
				}
				checkMSHRTable(t, step, &tab, ref)
			}
			if ref.sweeps == 0 || ref.clears == 0 {
				t.Fatalf("operations reached %d sweeps and %d clears; want both", ref.sweeps, ref.clears)
			}
		})
	}
}

// TestMSHRTableZeroAllocs pins lookup and insert, including the pressure
// sweep and the clear, at zero allocations.
func TestMSHRTableZeroAllocs(t *testing.T) {
	tab := newMSHRTable(4)
	now := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 1000
		for b := uint64(0); b < 20; b++ { // the 17th insert clears
			tab.insert(b<<6, now, now+100+b)
		}
		tab.lookup(3<<6, now)      // in flight
		tab.lookup(19<<6, now+500) // completed: dropped
	})
	if allocs != 0 {
		t.Errorf("mshrTable lookup/insert allocate %.1f times per run, want 0", allocs)
	}
}

// TestCoreModelRetireMonotonic: retirement times never decrease, whatever
// the instruction mix.
func TestCoreModelRetireMonotonic(t *testing.T) {
	cfg := DefaultConfig(1)
	sys := NewSystem(cfg, nil)
	c := sys.cores[0]
	rng := xrand.New(42)
	prev := uint64(0)
	for i := 0; i < 20000; i++ {
		kind := trace.MemKind(rng.Intn(4))
		ins := trace.Instr{PC: 0x400000 + uint64(rng.Intn(64))*4, Kind: kind}
		if kind != trace.MemNone {
			ins.Addr = rng.Uint64n(1 << 22)
		}
		c.step(sys.h, 0, ins)
		if c.lastRetire < prev {
			t.Fatalf("retire time went backwards at %d: %d < %d", i, c.lastRetire, prev)
		}
		prev = c.lastRetire
	}
}
