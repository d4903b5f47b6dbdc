package uarch

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// refLevel is the private-level protocol the directory replaced, kept as
// the reference: a cache.Cache driven through RecordHit on a hit, and
// RecordMissTouch, InvalidWay, else Set.LRUWay, then Fill on a miss.
type refLevel struct{ c *cache.Cache }

// fill mirrors the old fillLevel on a probed miss and returns the victim's
// block and whether it was valid and dirty.
func (r refLevel) fill(set uint32, addr uint64, ty trace.AccessType) (uint64, bool) {
	r.c.RecordMissTouch(set)
	way := r.c.InvalidWay(set)
	if way < 0 {
		way = r.c.Set(set).LRUWay()
	}
	v := &r.c.Set(set).Lines[way]
	block, dirty := v.Block, v.Valid && v.Dirty
	r.c.Fill(set, way, trace.Access{Addr: addr, Type: ty})
	return block, dirty
}

// compareDir fails unless d holds what ref does in every set: each way's
// validity, block and (valid) dirty bit, and the recency order over all
// ways, LRU first. It also checks that the stack's unused nibbles are zero.
func compareDir(t *testing.T, step int, d *lruDir, ref refLevel) {
	t.Helper()
	cfg := ref.c.Config()
	for set := 0; set < cfg.Sets; set++ {
		s := ref.c.Set(uint32(set))
		byStamp := make([]int, cfg.Ways)
		for w := range byStamp {
			byStamp[w] = w
		}
		sort.Slice(byStamp, func(i, j int) bool {
			return s.Lines[byStamp[i]].TouchedAt < s.Lines[byStamp[j]].TouchedAt
		})
		stack := d.stack[set]
		for pos, want := range byStamp {
			if got := int(stack >> (4 * pos) & 0xF); got != want {
				t.Fatalf("step %d: set %d recency position %d holds way %d, reference %d (stack %#x, reference order %v)",
					step, set, pos, got, want, stack, byStamp)
			}
		}
		if cfg.Ways < 16 && stack>>(4*cfg.Ways) != 0 {
			t.Fatalf("step %d: set %d stack %#x has nibbles above way %d", step, set, stack, cfg.Ways-1)
		}
		for w := range s.Lines {
			ln := &s.Lines[w]
			i := set*cfg.Ways + w
			valid := d.valid[set]>>w&1 == 1
			if valid != ln.Valid || (d.keys[i] != 0) != ln.Valid {
				t.Fatalf("step %d: set %d way %d valid bit %v key %d, reference valid %v",
					step, set, w, valid, d.keys[i], ln.Valid)
			}
			if ln.Valid && (d.keys[i] != ln.Block+1 || d.dirty[i] != ln.Dirty) {
				t.Fatalf("step %d: set %d way %d block %d dirty %v, reference %d %v",
					step, set, w, d.keys[i]-1, d.dirty[i], ln.Block, ln.Dirty)
			}
		}
	}
}

// runDirVsCache drives a directory and the reference in lock-step over
// ops, read as (kind, arg) byte pairs, and compares them after each step.
// An address falls in one of at most four sets spread over the level,
// with one of 2*ways tags there (so sets fill and evict), high tag bits
// that set indexing must ignore, and any offset within its line.
func runDirVsCache(t *testing.T, sets, ways int, ops []byte) {
	t.Helper()
	cfg := cache.Config{Sets: sets, Ways: ways, LineSize: 64}
	d := newLRUDir(cfg)
	ref := refLevel{cache.New(cfg)}
	used := min(sets, 4)
	addr := func(arg byte) uint64 {
		set := uint64(int(arg) % used * (sets / used))
		tag := uint64(int(arg) / used % (2 * ways))
		return (tag<<40|tag*uint64(sets)+set)<<6 | uint64(arg)%64
	}
	compareDir(t, -1, &d, ref)
	for i := 0; i+1 < len(ops); i += 2 {
		step, kind, arg := i/2, ops[i], ops[i+1]
		a := addr(arg)
		set, way, hit := d.probe(a)
		rset, rway, rhit := ref.c.Probe(a)
		if set != rset || way != rway || hit != rhit {
			t.Fatalf("step %d: probe %#x = set %d way %d hit %v, reference %d %d %v",
				step, a, set, way, hit, rset, rway, rhit)
		}
		ty := trace.AccessType(kind>>2) % trace.NumAccessTypes
		switch kind % 4 {
		case 0, 1: // an access of type ty: a hit promotes, a miss fills
			if hit {
				d.promote(set, way, ty)
				ref.c.RecordHit(set, way, trace.Access{Addr: a, Type: ty})
				break
			}
			block, dirty := d.fill(set, a, ty)
			rblock, rdirty := ref.fill(set, a, ty)
			if dirty != rdirty || dirty && block != rblock {
				t.Fatalf("step %d: fill %#x evicted dirty %v block %d, reference %v %d",
					step, a, dirty, block, rdirty, rblock)
			}
		case 2: // a back-invalidation, leaving a hole
			if got, want := d.invalidate(a), ref.c.Invalidate(a); got != want {
				t.Fatalf("step %d: invalidate %#x = %v, reference %v", step, a, got, want)
			}
		case 3: // a hit on a way probed before a fill reused it: any valid way
			w := int(arg) % ways
			if d.valid[set]>>w&1 == 1 {
				d.promote(set, w, ty)
				ref.c.RecordHit(set, w, trace.Access{Addr: a, Type: ty})
			}
		}
		compareDir(t, step, &d, ref)
	}
}

// TestLRUDirMatchesCache is the seeded differential test over the
// geometries the directory supports at its edges and in use.
func TestLRUDirMatchesCache(t *testing.T) {
	rng := xrand.New(32)
	for _, ways := range []int{1, 2, 3, 8, 16} {
		for _, sets := range []int{1, 2, 64} {
			for trial := 0; trial < 20; trial++ {
				ops := make([]byte, 2*(100+rng.Intn(900)))
				for i := range ops {
					ops[i] = byte(rng.Uint64())
				}
				runDirVsCache(t, sets, ways, ops)
			}
		}
	}
}

// FuzzLRUDirMatchesCache is the native fuzz target over runDirVsCache.
func FuzzLRUDirMatchesCache(f *testing.F) {
	f.Add(uint8(2), uint8(0), []byte{0, 0, 0, 1, 0, 2, 12, 3, 12, 4, 2, 1, 0, 5, 3, 0, 15, 2})
	f.Add(uint8(4), uint8(2), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(16), uint8(1), []byte{0, 0, 4, 1, 8, 2, 12, 3, 13, 0, 14, 1, 0, 9, 0, 8})
	f.Fuzz(func(t *testing.T, ways, logSets uint8, ops []byte) {
		runDirVsCache(t, 1<<(logSets%7), 1+int(ways)%16, ops)
	})
}

// TestNewHierarchyRejectsGeometry: a private level wider than the 16 ways
// a stack of 4-bit way ids holds, or any level whose lines are not the 64
// bytes every addr>>6 assumes, is refused at construction.
func TestNewHierarchyRejectsGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"L1I", func(c *Config) { c.L1I.Ways = 17 }},
		{"L1D", func(c *Config) { c.L1D.LineSize = 128 }},
		{"L2", func(c *Config) { c.L2.Ways = 32 }},
		{"LLC", func(c *Config) { c.LLC.LineSize = 32 }},
		{"L2", func(c *Config) { c.L2.Sets = 3 }},
	} {
		cfg := DefaultConfig(1)
		tc.edit(&cfg)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "uarch: "+tc.name+" ") && !strings.HasPrefix(msg, "uarch: "+tc.name+":") {
					t.Errorf("%s: panic %q, want one naming the level", tc.name, msg)
				}
			}()
			NewHierarchy(cfg, nil)
		}()
	}
	cfg := DefaultConfig(1)
	cfg.L2.Ways, cfg.LLC.Ways = 16, 32
	NewHierarchy(cfg, nil) // the widest private level and a wide LLC are fine
}

// TestAccessZeroAllocs pins AccessData and AccessInstr on a warm
// hierarchy (ipc-timing's geometry, hits and misses, both prefetchers on)
// at zero allocations.
func TestAccessZeroAllocs(t *testing.T) {
	h := NewHierarchy(ScaledConfig(1, 8), nil)
	rng := xrand.New(5)
	now := uint64(0)
	data := func() {
		now += 10
		addr := rng.Uint64n(1<<20) &^ 63
		h.AccessData(0, 0x400000+addr%4096, addr, rng.Intn(4) == 0, now)
	}
	instr := func() {
		now += 10
		h.AccessInstr(0, 0x400000+rng.Uint64n(1<<16), now)
	}
	for i := 0; i < 20000; i++ {
		data()
		instr()
	}
	for _, p := range []struct {
		name string
		fn   func()
	}{{"AccessData", data}, {"AccessInstr", instr}} {
		if allocs := testing.AllocsPerRun(5000, p.fn); allocs != 0 {
			t.Errorf("%s allocates %.2f times per call, want 0", p.name, allocs)
		}
	}
}
