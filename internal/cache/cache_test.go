package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func cfg4x2() Config { return Config{Sets: 4, Ways: 2, LineSize: 64} }

func ld(addr uint64) trace.Access { return trace.Access{PC: 0x400, Addr: addr, Type: trace.Load} }

func TestConfigValidate(t *testing.T) {
	good := Config{Sets: 16, Ways: 4, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Ways == 256 is the widest recency permutation a uint8 can hold and
	// must pass; 257 would silently truncate and must not.
	wide := Config{Sets: 16, Ways: 256, LineSize: 64}
	if err := wide.Validate(); err != nil {
		t.Errorf("256-way config rejected: %v", err)
	}
	bad := []Config{
		{Sets: 0, Ways: 4, LineSize: 64},
		{Sets: 3, Ways: 4, LineSize: 64},
		{Sets: 16, Ways: 0, LineSize: 64},
		{Sets: 16, Ways: 257, LineSize: 64},
		{Sets: 16, Ways: 4, LineSize: 0},
		{Sets: 16, Ways: 4, LineSize: 48},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", c)
		}
	}
}

func TestConfigSize(t *testing.T) {
	// 2MB 16-way with 64B lines = 2048 sets: the paper's single-core LLC.
	c := Config{Sets: 2048, Ways: 16, LineSize: 64}
	if got := c.SizeBytes(); got != 2<<20 {
		t.Errorf("SizeBytes = %d, want %d", got, 2<<20)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{Sets: 3, Ways: 1, LineSize: 64})
}

func TestAddressMapping(t *testing.T) {
	c := New(Config{Sets: 8, Ways: 2, LineSize: 64})
	// With 64B lines and 8 sets: set index = bits [6..8], tag above.
	addr := uint64(0x12345)
	if got := c.BlockAddr(addr); got != addr>>6 {
		t.Errorf("BlockAddr = %#x, want %#x", got, addr>>6)
	}
	if got := c.SetIndex(addr); got != uint32((addr>>6)&7) {
		t.Errorf("SetIndex = %d", got)
	}
	// Two addresses in the same line must map identically.
	if c.SetIndex(0x1000) != c.SetIndex(0x103F) {
		t.Error("addresses within one line map to different sets")
	}
	if c.BlockAddr(0x1000) != c.BlockAddr(0x103F) {
		t.Error("addresses within one line have different block addrs")
	}
}

func TestFillProbeHit(t *testing.T) {
	c := New(cfg4x2())
	a := ld(0x1000)
	set, way, hit := c.Probe(a.Addr)
	if hit {
		t.Fatal("empty cache reported a hit")
	}
	c.RecordMissTouch(set)
	w := c.InvalidWay(set)
	if w < 0 {
		t.Fatal("no invalid way in empty set")
	}
	c.Fill(set, w, a)
	if _, way2, hit := c.Probe(a.Addr); !hit || way2 != w {
		t.Fatalf("Probe after fill: hit=%v way=%d, want hit at %d", hit, way2, w)
	}
	_ = way
}

func TestHitMetadataProtocol(t *testing.T) {
	c := New(cfg4x2())
	a := ld(0x1000)
	set, _, _ := c.Probe(a.Addr)
	c.RecordMissTouch(set)
	c.Fill(set, 0, a)

	// Three accesses to a *different* line in the same set age the first line.
	b := ld(0x1000 + 4*64) // same set (4 sets × 64B lines), different tag
	set2, _, _ := c.Probe(b.Addr)
	if set2 != set {
		t.Fatalf("test addresses landed in different sets: %d vs %d", set, set2)
	}
	c.RecordMissTouch(set)
	c.Fill(set, 1, b)
	c.RecordHit(set, 1, b)
	c.RecordHit(set, 1, b)

	// Now hit line 0: its age is 4 set accesses (fill of b + 2 hits + this
	// one), so preuse — accesses *between* the two accesses — is 3.
	preuse := c.RecordHit(set, 0, a)
	if preuse != 3 {
		t.Errorf("preuse = %d, want 3", preuse)
	}
	s := c.Set(set)
	ln := &s.Lines[0]
	if got := s.AgeSinceAccess(ln); got != 0 {
		t.Errorf("AgeSinceAccess after hit = %d, want 0", got)
	}
	if ln.Preuse != 3 {
		t.Errorf("line.Preuse = %d, want 3", ln.Preuse)
	}
	if ln.HitsSinceInsert != 1 {
		t.Errorf("HitsSinceInsert = %d, want 1", ln.HitsSinceInsert)
	}
	if ln.LoadCount != 2 { // fill + hit
		t.Errorf("LoadCount = %d, want 2", ln.LoadCount)
	}
	if got := s.AgeSinceInsert(ln); got != 4 {
		t.Errorf("AgeSinceInsert = %d, want 4", got)
	}
}

func TestRecencyOrder(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 4, LineSize: 64})
	addrs := []uint64{0x0, 0x40 * 1, 0x40 * 2, 0x40 * 3}
	for i, ad := range addrs {
		c.RecordMissTouch(0)
		c.Fill(0, i, ld(ad))
	}
	s := c.Set(0)
	// After filling 0,1,2,3 in order, recency must be 0,1,2,3.
	for w := 0; w < 4; w++ {
		if got := s.Recency(&s.Lines[w]); got != w {
			t.Errorf("way %d recency = %d, want %d", w, got, w)
		}
	}
	// Hit way 0: it becomes MRU (3), the rest shift down.
	c.RecordHit(0, 0, ld(addrs[0]))
	want := []int{3, 0, 1, 2}
	for w := 0; w < 4; w++ {
		if got := s.Recency(&s.Lines[w]); got != want[w] {
			t.Errorf("after promote: way %d recency = %d, want %d", w, got, want[w])
		}
	}
	if got := s.LRUWay(); got != 1 {
		t.Errorf("LRUWay = %d, want 1", got)
	}
}

func TestRecencyAlwaysPermutation(t *testing.T) {
	// Property: whatever access sequence we apply, the recency values within
	// a set remain a permutation of 0..ways-1.
	f := func(ops []uint8) bool {
		c := New(Config{Sets: 2, Ways: 4, LineSize: 64})
		for _, op := range ops {
			addr := uint64(op%16) * 64
			set, way, hit := c.Probe(addr)
			if hit {
				c.RecordHit(set, way, ld(addr))
				continue
			}
			c.RecordMissTouch(set)
			w := c.InvalidWay(set)
			if w < 0 {
				w = int(op) % 4
			}
			c.Fill(set, w, ld(addr))
		}
		for s := uint32(0); s < 2; s++ {
			seen := [4]bool{}
			set := c.Set(s)
			for w := range set.Lines {
				r := set.Recency(&set.Lines[w])
				if r >= 4 || seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetCounters(t *testing.T) {
	c := New(cfg4x2())
	a := ld(0x1000)
	set, _, _ := c.Probe(a.Addr)
	c.RecordMissTouch(set)
	c.Fill(set, 0, a)
	c.RecordHit(set, 0, a)
	c.RecordHit(set, 0, a)
	s := c.Set(set)
	if s.Accesses != 3 {
		t.Errorf("Accesses = %d, want 3", s.Accesses)
	}
	if s.AccessesSinceMiss != 2 {
		t.Errorf("AccessesSinceMiss = %d, want 2", s.AccessesSinceMiss)
	}
	if s.Misses != 1 {
		t.Errorf("Misses = %d, want 1", s.Misses)
	}
	c.RecordMissTouch(set)
	if s.AccessesSinceMiss != 0 {
		t.Errorf("AccessesSinceMiss after miss = %d, want 0", s.AccessesSinceMiss)
	}
}

func TestDirtyTracking(t *testing.T) {
	c := New(cfg4x2())
	a := trace.Access{Addr: 0x2000, Type: trace.Load}
	set, _, _ := c.Probe(a.Addr)
	c.RecordMissTouch(set)
	c.Fill(set, 0, a)
	if c.Set(set).Lines[0].Dirty {
		t.Error("load fill marked dirty")
	}
	wb := trace.Access{Addr: 0x2000, Type: trace.Writeback}
	c.RecordHit(set, 0, wb)
	if !c.Set(set).Lines[0].Dirty {
		t.Error("writeback hit did not mark dirty")
	}
	// RFO fill is dirty immediately.
	rfo := trace.Access{Addr: 0x3000, Type: trace.RFO}
	set2, _, _ := c.Probe(rfo.Addr)
	c.RecordMissTouch(set2)
	c.Fill(set2, 0, rfo)
	if !c.Set(set2).Lines[0].Dirty {
		t.Error("RFO fill not dirty")
	}
}

// TestVictimReadInPlace pins the rule callers of Fill rely on: the victim
// read in place before the fill has the ages and recency that a copy of it
// reads against the set after the fill.
func TestVictimReadInPlace(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 4, LineSize: 64})
	s := c.Set(0)
	for i := uint64(0); i < 4; i++ {
		c.RecordMissTouch(0)
		c.Fill(0, c.InvalidWay(0), ld(i*64))
	}
	c.RecordHit(0, 1, ld(64))
	c.RecordHit(0, 0, ld(0))
	c.RecordMissTouch(0)
	const way = 2
	victim := &s.Lines[way]
	if !victim.Valid || victim.Block != 2 {
		t.Fatalf("victim in place = %+v, want valid block 2", *victim)
	}
	ins, acc, rec := s.AgeSinceInsert(victim), s.AgeSinceAccess(victim), s.Recency(victim)
	saved := *victim
	c.Fill(0, way, ld(0x1000))
	if got := s.AgeSinceInsert(&saved); got != ins {
		t.Errorf("age since insert after fill = %d, before %d", got, ins)
	}
	if got := s.AgeSinceAccess(&saved); got != acc {
		t.Errorf("age since access after fill = %d, before %d", got, acc)
	}
	if got := s.Recency(&saved); got != rec {
		t.Errorf("recency after fill = %d, before %d", got, rec)
	}
}

func TestFillVictimInPlace(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, LineSize: 64})
	c.RecordMissTouch(0)
	if v := &c.Set(0).Lines[0]; v.Valid {
		t.Error("empty way holds a valid line")
	}
	c.Fill(0, 0, ld(0x0))
	c.RecordMissTouch(0)
	wb := trace.Access{Addr: 0x0, Type: trace.Writeback}
	c.RecordHit(0, 0, wb) // dirty it
	c.RecordMissTouch(0)
	if v := &c.Set(0).Lines[0]; !v.Valid || !v.Dirty || v.Block != 0 {
		t.Errorf("victim = %+v, want valid dirty block 0", *v)
	}
	c.Fill(0, 0, ld(0x40))
	if ln := &c.Set(0).Lines[0]; ln.Block != 1 || ln.Dirty {
		t.Errorf("filled line = %+v, want clean block 1", *ln)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(cfg4x2())
	a := ld(0x1000)
	set, _, _ := c.Probe(a.Addr)
	c.RecordMissTouch(set)
	c.Fill(set, 0, a)
	if !c.Invalidate(0x1000) {
		t.Error("Invalidate of resident block reported it absent")
	}
	if _, _, hit := c.Probe(0x1000); hit {
		t.Error("block still resident after Invalidate")
	}
	if c.Invalidate(0x1000) {
		t.Error("second Invalidate of the same block reported it resident")
	}
	if c.Invalidate(0x9999000) {
		t.Error("Invalidate of absent block reported it resident")
	}
}

func TestStats(t *testing.T) {
	c := New(cfg4x2())
	for i := uint64(0); i < 4; i++ {
		a := trace.Access{Addr: i * 64, Type: trace.RFO}
		set, _, _ := c.Probe(a.Addr)
		c.RecordMissTouch(set)
		c.Fill(set, c.InvalidWay(set), a)
	}
	st := c.Stats()
	if st.ValidLines != 4 || st.DirtyLines != 4 || st.Misses != 4 || st.Accesses != 4 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestSaturatingCounters(t *testing.T) {
	v := counterMax - 1
	satInc(&v)
	if v != counterMax {
		t.Errorf("satInc near max = %d", v)
	}
	satInc(&v)
	if v != counterMax {
		t.Errorf("satInc at max wrapped to %d", v)
	}
}

func TestPrefetchTypeTracking(t *testing.T) {
	c := New(cfg4x2())
	pf := trace.Access{Addr: 0x4000, Type: trace.Prefetch, PC: 0x999}
	set, _, _ := c.Probe(pf.Addr)
	c.RecordMissTouch(set)
	c.Fill(set, 0, pf)
	ln := &c.Set(set).Lines[0]
	if ln.LastAccessType != trace.Prefetch || ln.PrefetchCount != 1 {
		t.Errorf("prefetch fill metadata: type=%v count=%d", ln.LastAccessType, ln.PrefetchCount)
	}
	// A demand hit flips the last access type — the signal RLR's Type
	// Register watches for.
	c.RecordHit(set, 0, ld(0x4000))
	if ln.LastAccessType != trace.Load {
		t.Errorf("LastAccessType after demand hit = %v, want LD", ln.LastAccessType)
	}
}
