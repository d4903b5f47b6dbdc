package policy

import (
	"testing"

	"repro/internal/xrand"
)

// newOptGenSet returns one sampler for a set of the given ways.
func newOptGenSet(ways int) *optGenSet { return &newOptGenSets(1, ways)[0] }

func TestOptGenSingleBlockAlwaysHits(t *testing.T) {
	og := newOptGenSet(4)
	og.access(1, 0x10)
	for i := 0; i < 10; i++ {
		hit, pc, trainable := og.access(1, 0x10)
		if !trainable {
			t.Fatalf("iteration %d: repeat access not trainable", i)
		}
		if !hit {
			t.Fatalf("iteration %d: single resident block reported OPT miss", i)
		}
		if pc != 0x10 {
			t.Fatalf("train PC = %#x, want 0x10", pc)
		}
	}
}

func TestOptGenCapacityPressure(t *testing.T) {
	// Associativity 2 → capacity 2. Interleave 3 blocks cyclically: at most
	// 2 of the 3 liveness intervals can fit; OPTgen must report misses.
	og := newOptGenSet(2)
	hits, misses := 0, 0
	blocks := []uint64{1, 2, 3}
	for rep := 0; rep < 20; rep++ {
		for _, b := range blocks {
			h, _, trainable := og.access(b, b)
			if trainable {
				if h {
					hits++
				} else {
					misses++
				}
			}
		}
	}
	if misses == 0 {
		t.Errorf("OPTgen reported no misses under capacity pressure (hits=%d)", hits)
	}
	// OPT on cyclic 3-over-2 achieves 1 hit per 3 accesses: hits should be
	// positive too.
	if hits == 0 {
		t.Errorf("OPTgen reported no hits; OPT achieves some (misses=%d)", misses)
	}
}

func TestOptGenWindowExpiry(t *testing.T) {
	og := newOptGenSet(2) // window = 16
	og.access(7, 0x1)
	// Push 20 distinct blocks through: block 7's interval exceeds window.
	for b := uint64(100); b < 120; b++ {
		og.access(b, 0x2)
	}
	_, _, trainable := og.access(7, 0x1)
	if trainable {
		t.Error("access beyond OPTgen window was trainable")
	}
}

func TestOptGenHistoryBounded(t *testing.T) {
	og := newOptGenSet(2)
	for b := uint64(0); b < 100000; b++ {
		og.access(b, 1)
		if og.live > int(og.window) {
			t.Fatalf("after %d accesses: %d live entries exceed the window of %d", b+1, og.live, og.window)
		}
	}
	if err := og.check(); err != nil {
		t.Fatal(err)
	}
}

// optGenMap is the map-based OPTgen sampler the table replaced: the
// reference the table must agree with at every step. Its history keeps
// every block's latest access and sweeps out-of-window entries once it
// holds more than 4×window of them.
type optGenMap struct {
	occupancy []uint16
	time      uint64
	window    uint64
	capacity  uint16
	history   map[uint64]optGenMapSample
}

type optGenMapSample struct {
	time uint64
	pc   uint64
}

func newOptGenMap(ways int) *optGenMap {
	w := uint64(ways * hkHistoryMult)
	return &optGenMap{
		occupancy: make([]uint16, w),
		window:    w,
		capacity:  uint16(ways),
		history:   make(map[uint64]optGenMapSample),
	}
}

func (o *optGenMap) access(block, pc uint64) (optHit bool, trainPC uint64, trainable bool) {
	now := o.time
	o.time++
	o.occupancy[now%o.window] = 0

	prev, seen := o.history[block]
	if seen && now-prev.time < o.window && now > prev.time {
		trainable = true
		trainPC = prev.pc
		optHit = true
		for t := prev.time; t < now; t++ {
			if o.occupancy[t%o.window] >= o.capacity {
				optHit = false
				break
			}
		}
		if optHit {
			for t := prev.time; t < now; t++ {
				o.occupancy[t%o.window]++
			}
		}
	}
	o.history[block] = optGenMapSample{time: now, pc: pc}
	if len(o.history) > int(4*o.window) {
		for b, s := range o.history {
			if now-s.time >= o.window {
				delete(o.history, b)
			}
		}
	}
	return optHit, trainPC, trainable
}

// optGenDiffWays are the associativities the differential runs use: their
// windows (8, 16, 24, 40, 128) are not all powers of two.
var optGenDiffWays = []int{1, 2, 3, 5, 16}

// runOptGenDiff drives the table sampler and the map reference in
// lock-step over a seeded stream of n accesses and fails at the first
// step where their answers differ or the table breaks an invariant. The
// stream mixes re-touches at distances window-1, window and window+1
// (the edge of the window), re-touches at random distances, a small hot
// pool (keys that collide in the table) and fresh blocks (keys that
// leave it).
func runOptGenDiff(t *testing.T, ways int, seed uint64, n int) {
	t.Helper()
	og, ref := newOptGenSet(ways), newOptGenMap(ways)
	w := int(og.window)
	rng := xrand.New(seed)
	hot := 1 + rng.Intn(3*w)
	past := make([]uint64, 0, n)
	next := uint64(1 << 32)
	for i := 0; i < n; i++ {
		var block uint64
		switch k := rng.Intn(8); {
		case k < 3 && i > w+1:
			block = past[i-(w-1+rng.Intn(3))]
		case k < 4 && i > 0:
			block = past[i-1-rng.Intn(min(i, 2*w+2))]
		case k < 6:
			block = rng.Uint64n(uint64(hot))
		default:
			block = next
			next++
		}
		past = append(past, block)
		pc := rng.Uint64n(16)
		gh, gpc, gt := og.access(block, pc)
		wh, wpc, wt := ref.access(block, pc)
		if gh != wh || gpc != wpc || gt != wt {
			t.Fatalf("ways %d seed %d step %d block %#x: table (hit %v, pc %#x, trainable %v), map (hit %v, pc %#x, trainable %v)",
				ways, seed, i, block, gh, gpc, gt, wh, wpc, wt)
		}
		if err := og.check(); err != nil {
			t.Fatalf("ways %d seed %d step %d: %v", ways, seed, i, err)
		}
	}
}

func TestOptGenTableMatchesMap(t *testing.T) {
	for _, ways := range optGenDiffWays {
		for seed := uint64(1); seed <= 4; seed++ {
			// 40 windows: the ring wraps 40 times.
			runOptGenDiff(t, ways, seed, 40*ways*hkHistoryMult)
		}
	}
}

func FuzzOptGenTableVsMap(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(2))
	f.Add(uint64(42), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, waysSel uint8) {
		ways := optGenDiffWays[int(waysSel)%len(optGenDiffWays)]
		runOptGenDiff(t, ways, seed, 12*ways*hkHistoryMult)
	})
}
