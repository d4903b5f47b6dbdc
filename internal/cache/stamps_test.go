package cache

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// eagerSet is the reference for a set's ages and recency as the cache kept
// them before they were derived from stamps: two saturating counters per
// line that every access to the set increments on every valid line, and a
// recency byte per line that every promotion rewrites. The differential
// tests below drive it in lock-step with a real Cache.
type eagerSet struct {
	valid   []bool
	ageIns  []uint32
	ageAcc  []uint32
	recency []uint8
}

func newEagerSet(ways int) *eagerSet {
	e := &eagerSet{
		valid:   make([]bool, ways),
		ageIns:  make([]uint32, ways),
		ageAcc:  make([]uint32, ways),
		recency: make([]uint8, ways),
	}
	for w := range e.recency {
		e.recency[w] = uint8(w)
	}
	return e
}

// touchSet ages every valid line by one set access.
func (e *eagerSet) touchSet() { e.advance(1) }

// advance ages every valid line by n set accesses, saturating: the same as
// n calls of touchSet.
func (e *eagerSet) advance(n uint64) {
	for w := range e.valid {
		if e.valid[w] {
			e.ageIns[w] = saturate(uint64(e.ageIns[w]) + n)
			e.ageAcc[w] = saturate(uint64(e.ageAcc[w]) + n)
		}
	}
}

// promote makes way the most recently used line, shifting down the recency
// of every line that was above it.
func (e *eagerSet) promote(way int) {
	old := e.recency[way]
	for w := range e.recency {
		if e.recency[w] > old {
			e.recency[w]--
		}
	}
	e.recency[way] = uint8(len(e.recency) - 1)
}

func (e *eagerSet) hit(way int) (preuse uint32) {
	e.touchSet()
	preuse = e.ageAcc[way] - 1
	e.ageAcc[way] = 0
	e.promote(way)
	return preuse
}

func (e *eagerSet) fill(way int) {
	e.valid[way] = true
	e.ageIns[way], e.ageAcc[way] = 0, 0
	e.promote(way)
}

func (e *eagerSet) invalidWay() int {
	for w, v := range e.valid {
		if !v {
			return w
		}
	}
	return -1
}

// compareEager fails t unless s matches e: both ages and the recency rank
// of every valid line, the recency rank of every line, and the LRU way.
func compareEager(t *testing.T, step int, s *Set, e *eagerSet) {
	t.Helper()
	lru := -1
	for w := range s.Lines {
		ln := &s.Lines[w]
		if ln.Valid != e.valid[w] {
			t.Fatalf("step %d way %d: valid %v, eager %v", step, w, ln.Valid, e.valid[w])
		}
		if got := s.Recency(ln); got != int(e.recency[w]) {
			t.Fatalf("step %d way %d: recency %d, eager %d", step, w, got, e.recency[w])
		}
		if e.recency[w] == 0 {
			lru = w
		}
		if !ln.Valid {
			continue
		}
		if got := s.AgeSinceInsert(ln); got != e.ageIns[w] {
			t.Fatalf("step %d way %d: age since insert %d, eager %d", step, w, got, e.ageIns[w])
		}
		if got := s.AgeSinceAccess(ln); got != e.ageAcc[w] {
			t.Fatalf("step %d way %d: age since access %d, eager %d", step, w, got, e.ageAcc[w])
		}
	}
	if got := s.LRUWay(); got != lru {
		t.Fatalf("step %d: LRUWay %d, eager %d", step, got, lru)
	}
	if n := validLines(s); s.valid != n {
		t.Fatalf("step %d: valid-line count %d, %d lines valid", step, s.valid, n)
	}
}

// validLines counts the valid lines of s by a scan.
func validLines(s *Set) int {
	n := 0
	for w := range s.Lines {
		if s.Lines[w].Valid {
			n++
		}
	}
	return n
}

// nearSaturation is how far below 2^32 a set's ages start in the
// saturation cases: a few accesses carry them across the counter width.
const nearSaturation = 6

// runStampsVsEager applies the operations encoded in ops to a one-set cache
// and to the eager reference, comparing them after every step, and checks
// that each step wrote no line but the one it accessed. Each operation is
// two bytes, a kind and an argument; blocks come from a pool twice the
// associativity, so hits, conflict misses and holes all occur. One kind is
// a SaveState/LoadState round trip, after which the run goes on with the
// loaded cache. With saturating set, the first fills are followed by a
// jump of the set's access count to just below 2^32 accesses later, so the
// ages saturate.
func runStampsVsEager(t *testing.T, ways int, saturating bool, ops []byte) {
	t.Helper()
	c := New(Config{Sets: 1, Ways: ways, LineSize: 64})
	s := c.Set(0)
	e := newEagerSet(ways)
	compareEager(t, -1, s, e)
	pool := uint64(2 * ways)
	addr := func(arg byte) uint64 { return uint64(arg) % pool * 64 }
	touched := -1 // the way the current step may write
	// fill installs a into a way the way a miss does: the lowest invalid
	// way, else the argument's way. It checks the victim's derived values
	// against the eager line it replaces twice: read in place before the
	// fill, and from a copy read against the set after it.
	fill := func(step int, a trace.Access, arg byte) {
		way := c.InvalidWay(0)
		if want := e.invalidWay(); way != want {
			t.Fatalf("step %d: InvalidWay %d, eager %d", step, way, want)
		}
		if way < 0 {
			way = int(arg) % ways
		}
		touched = way
		wasValid, ins, acc, rec := e.valid[way], e.ageIns[way], e.ageAcc[way], e.recency[way]
		checkVictim := func(when string, v *Line) {
			if wasValid && (s.AgeSinceInsert(v) != ins || s.AgeSinceAccess(v) != acc || s.Recency(v) != int(rec)) {
				t.Fatalf("step %d: victim %s ages %d/%d recency %d, eager %d/%d/%d", step, when,
					s.AgeSinceInsert(v), s.AgeSinceAccess(v), s.Recency(v), ins, acc, rec)
			}
		}
		victim := &s.Lines[way]
		if victim.Valid != wasValid {
			t.Fatalf("step %d: victim valid %v, eager %v", step, victim.Valid, wasValid)
		}
		checkVictim("in place", victim)
		saved := *victim
		c.Fill(0, way, a)
		e.fill(way)
		checkVictim("copy after the fill", &saved)
	}
	before := make([]Line, ways)
	for i := 0; i+1 < len(ops); i += 2 {
		step, kind, arg := i/2, ops[i], ops[i+1]
		copy(before, s.Lines)
		touched = -1
		if saturating && step == ways {
			jump := uint64(1)<<32 - nearSaturation - s.Accesses
			s.Accesses += jump
			e.advance(jump)
		}
		switch kind % 6 {
		case 0, 1: // an access: hit, or miss then fill
			a := ld(addr(arg))
			if _, way, hit := c.Probe(a.Addr); hit {
				touched = way
				got, want := c.RecordHit(0, way, a), e.hit(way)
				if got != want {
					t.Fatalf("step %d: preuse %d, eager %d", step, got, want)
				}
				if ln := &s.Lines[way]; ln.Preuse != want {
					t.Fatalf("step %d: line preuse %d, eager %d", step, ln.Preuse, want)
				}
				break
			}
			c.RecordMissTouch(0)
			e.touchSet()
			fill(step, a, arg)
		case 2: // a bypassed miss: the set ages, nothing fills
			c.RecordMissTouch(0)
			e.touchSet()
		case 3: // a fill with no preceding touch, of a block not resident
			a := ld(addr(arg))
			for k := byte(1); ; k++ {
				if _, _, hit := c.Probe(a.Addr); !hit {
					break
				}
				a = ld(addr(arg + k))
			}
			fill(step, a, arg)
		case 4: // a back-invalidation, leaving a hole
			if _, way, hit := c.Probe(addr(arg)); hit {
				touched = way
				c.Invalidate(addr(arg))
				e.valid[way] = false
			}
		case 5: // a checkpoint round trip into a fresh cache
			var buf bytes.Buffer
			if err := c.SaveState(&buf); err != nil {
				t.Fatalf("step %d: SaveState: %v", step, err)
			}
			c = New(c.Config())
			if err := c.LoadState(&buf); err != nil {
				t.Fatalf("step %d: LoadState: %v", step, err)
			}
			s = c.Set(0)
		}
		for w := range s.Lines {
			if w != touched && s.Lines[w] != before[w] {
				t.Fatalf("step %d (kind %d) wrote way %d, not the accessed way %d:\nbefore %+v\nafter  %+v",
					step, kind%6, w, touched, before[w], s.Lines[w])
			}
		}
		compareEager(t, step, s, e)
	}
}

// TestStampsMatchEager is the seeded property test: random operation
// sequences over associativities 1..16 must leave the stamp-derived ages
// and recency equal to the eager counters after every step.
func TestStampsMatchEager(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 300; trial++ {
		ways := 1 + rng.Intn(16)
		ops := make([]byte, 2*(50+rng.Intn(400)))
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		runStampsVsEager(t, ways, trial%3 == 0, ops)
	}
}

// TestStampsSaturate pins the 32-bit saturation of the derived ages: a set
// that starts just below 2^32 accesses after its lines were inserted must
// report exactly 2^32-1 once the counters would overflow, as the eager
// counters did, and a hit on a saturated line must report preuse 2^32-2.
func TestStampsSaturate(t *testing.T) {
	const ways = 4
	var ops []byte
	for w := 0; w < ways; w++ {
		ops = append(ops, 0, byte(w)) // compulsory fills of blocks 0..3
	}
	for k := 0; k < 2*nearSaturation; k++ {
		ops = append(ops, 2, 0) // bypassed misses age the set past 2^32
	}
	ops = append(ops, 0, 1) // hit on block 1
	runStampsVsEager(t, ways, true, ops)

	c := New(Config{Sets: 1, Ways: 1, LineSize: 64})
	s := c.Set(0)
	c.Fill(0, 0, ld(0))
	s.Accesses = 1<<32 + 5
	if got := s.AgeSinceInsert(&s.Lines[0]); got != counterMax {
		t.Fatalf("AgeSinceInsert = %d, want %d", got, counterMax)
	}
	if got := c.RecordHit(0, 0, ld(0)); got != counterMax-1 {
		t.Fatalf("preuse of a saturated line = %d, want %d", got, counterMax-1)
	}
}

// TestLoadStateRecountsValidLines pins the valid-line count across a
// checkpoint: a partly filled set with one invalidated way, loaded into a
// fresh cache and into a full one, must report the same invalid way as the
// original and take the next fills into the same ways.
func TestLoadStateRecountsValidLines(t *testing.T) {
	cfg := Config{Sets: 1, Ways: 4, LineSize: 64}
	fillNext := func(c *Cache, addr uint64) int {
		c.RecordMissTouch(0)
		way := c.InvalidWay(0)
		if way >= 0 {
			c.Fill(0, way, ld(addr))
		}
		return way
	}
	orig := New(cfg)
	for i := uint64(0); i < 3; i++ {
		fillNext(orig, i*64)
	}
	if !orig.Invalidate(64) {
		t.Fatal("block 1 not resident")
	}
	var state bytes.Buffer
	if err := orig.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	full := New(cfg)
	for i := uint64(0); i < 4; i++ {
		fillNext(full, 0x10000+i*64)
	}
	for name, c := range map[string]*Cache{"fresh": New(cfg), "full": full} {
		if err := c.LoadState(bytes.NewReader(state.Bytes())); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := c.Set(0).valid, orig.Set(0).valid; got != want {
			t.Fatalf("%s: valid-line count %d, original %d", name, got, want)
		}
		if got, want := c.InvalidWay(0), orig.InvalidWay(0); got != want || got != 1 {
			t.Fatalf("%s: InvalidWay %d, original %d, want 1", name, got, want)
		}
	}
	loaded := New(cfg)
	if err := loaded.LoadState(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i := uint64(8); i < 11; i++ {
		got, want := fillNext(loaded, i*64), fillNext(orig, i*64)
		if got != want {
			t.Fatalf("fill of block %d: way %d, original %d", i, got, want)
		}
		for w := range orig.Set(0).Lines {
			if loaded.Set(0).Lines[w] != orig.Set(0).Lines[w] {
				t.Fatalf("after fill of block %d, way %d differs", i, w)
			}
		}
	}
	if got := orig.InvalidWay(0); got != -1 {
		t.Fatalf("InvalidWay of the refilled set = %d, want -1", got)
	}
}

// FuzzStampsMatchEager is the native fuzz target over runStampsVsEager.
func FuzzStampsMatchEager(f *testing.F) {
	f.Add(uint8(4), false, []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 1, 0, 4, 2, 3, 9, 2, 0, 0, 2})
	f.Add(uint8(1), true, []byte{0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 0, 0})
	f.Add(uint8(16), true, []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, ways uint8, saturating bool, ops []byte) {
		runStampsVsEager(t, 1+int(ways)%16, saturating, ops)
	})
}

// TestLineSize pins the packed Line layout: a larger Line grows every
// cache's footprint and the per-set scans.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got > 88 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want <= 88", got)
	}
}

// TestResetMatchesNew: after a random replay, with hits, misses, fills,
// bypasses and invalidations, Reset leaves the cache in the state New
// does: the same checkpoint bytes and the same valid-line counts, which
// the checkpoint does not hold.
func TestResetMatchesNew(t *testing.T) {
	rng := xrand.New(29)
	for _, cfg := range []Config{{Sets: 8, Ways: 4, LineSize: 64}, {Sets: 16, Ways: 3, LineSize: 128}} {
		c := New(cfg)
		for trial := 0; trial < 3; trial++ {
			for i := 0; i < 2000; i++ {
				a := trace.Access{
					PC:   rng.Uint64n(8),
					Addr: rng.Uint64n(uint64(4*cfg.Sets*cfg.Ways)) * cfg.LineSize,
					Type: trace.AccessType(rng.Intn(int(trace.NumAccessTypes))),
				}
				if rng.Intn(10) == 0 {
					c.Invalidate(a.Addr)
					continue
				}
				set, way, hit := c.Probe(a.Addr)
				if hit {
					c.RecordHit(set, way, a)
					continue
				}
				c.RecordMissTouch(set)
				if way = c.InvalidWay(set); way < 0 && rng.Intn(4) != 0 {
					way = rng.Intn(cfg.Ways)
				}
				if way >= 0 {
					c.Fill(set, way, a)
				}
			}
			c.Reset()
			fresh := New(cfg)
			var got, want bytes.Buffer
			if err := c.SaveState(&got); err != nil {
				t.Fatal(err)
			}
			if err := fresh.SaveState(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%+v trial %d: state after Reset differs from New's", cfg, trial)
			}
			for i := range cfg.Sets {
				if got, want := c.Set(uint32(i)).valid, fresh.Set(uint32(i)).valid; got != want {
					t.Fatalf("%+v trial %d: set %d valid-line count %d after Reset, New %d", cfg, trial, i, got, want)
				}
			}
		}
	}
}
