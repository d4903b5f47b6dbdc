package refmodel

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

var testGeometries = []cache.Config{
	{Sets: 1, Ways: 2, LineSize: 64},
	{Sets: 2, Ways: 2, LineSize: 64},
	{Sets: 16, Ways: 4, LineSize: 64},
}

// TestDifferentialSweepSmoke is the in-test slice of the cmd/check sweep:
// every pair, a few geometries and seeds, every trace class.
func TestDifferentialSweepSmoke(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 400
	}
	for _, pair := range Pairs() {
		for _, cls := range Classes() {
			for _, cfg := range testGeometries {
				for seed := uint64(0); seed < 3; seed++ {
					tr := cls.Gen(seed, n)
					if d := Diff(pair, cfg, tr); d != nil {
						t.Fatalf("pair %s, class %s, %dx%d, seed %d:\n%s",
							pair.Name, cls.Name, cfg.Sets, cfg.Ways, seed, d)
					}
				}
			}
		}
	}
}

// TestClassesDeterministic pins that a trace class is a pure function of
// (seed, n): shrinking and replay depend on it.
func TestClassesDeterministic(t *testing.T) {
	for _, cls := range Classes() {
		a := cls.Gen(7, 200)
		b := cls.Gen(7, 200)
		if len(a) != len(b) {
			t.Fatalf("class %s: lengths differ: %d vs %d", cls.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("class %s: access %d differs: %+v vs %+v", cls.Name, i, a[i], b[i])
			}
		}
	}
}

// brokenLRU is LRU with a deliberate off-by-one: it evicts the second-least
// recently used line whenever the set has more than one way. The
// differential driver must catch it, and Shrink must hand back a trace that
// still diverges.
type brokenLRU struct{ policy.LRU }

func (*brokenLRU) Name() string { return "broken-lru" }

func (*brokenLRU) Victim(_ policy.AccessCtx, set *cache.Set) int {
	best, second := -1, -1
	var bestRec, secondRec uint64
	for w := range set.Lines {
		r := set.Lines[w].TouchedAt
		switch {
		case best < 0 || r < bestRec:
			second, secondRec = best, bestRec
			best, bestRec = w, r
		case second < 0 || r < secondRec:
			second, secondRec = w, r
		}
	}
	if second >= 0 {
		return second
	}
	return best
}

func brokenLRUPair() Pair {
	return Pair{
		Name: "lru",
		New:  func(_ []trace.Access, _ cache.Config) policy.Policy { return new(brokenLRU) },
		Ref:  func(_ []trace.Access, _ cache.Config) Model { return NewLRU() },
	}
}

// TestDiffCatchesInjectedBug pins the harness's sensitivity: a seeded
// mutation in the production policy must produce a divergence, and the
// shrunk counterexample must replay to a divergence as well.
func TestDiffCatchesInjectedBug(t *testing.T) {
	cfg := cache.Config{Sets: 4, Ways: 4, LineSize: 64}
	pair := brokenLRUPair()
	tr := genUniform(1, 2000)
	d := Diff(pair, cfg, tr)
	if d == nil {
		t.Fatal("differential driver missed a deliberately broken LRU")
	}
	if d.Reason != "way" {
		t.Fatalf("divergence reason = %q, want way disagreement", d.Reason)
	}
	min := Shrink(pair, d)
	if got := Diff(pair, cfg, min.Accesses); got == nil {
		t.Fatal("shrunk counterexample no longer diverges")
	}
	if len(min.Accesses) > len(d.Accesses) {
		t.Fatalf("shrink grew the trace: %d -> %d accesses", len(d.Accesses), len(min.Accesses))
	}
	// The minimal broken-LRU counterexample needs only to fill one set and
	// miss once more; anything near the original length means Shrink did
	// nothing.
	if len(min.Accesses) > 64 {
		t.Fatalf("shrunk counterexample still has %d accesses", len(min.Accesses))
	}
}

// TestCounterexampleRoundTrip pins that a printed divergence parses back to
// the same pair, geometry, and access list, and replays to a divergence.
func TestCounterexampleRoundTrip(t *testing.T) {
	cfg := cache.Config{Sets: 2, Ways: 2, LineSize: 64}
	pair := brokenLRUPair()
	d := Diff(pair, cfg, genUniform(3, 1000))
	if d == nil {
		t.Fatal("expected a divergence to round-trip")
	}
	d = Shrink(pair, d)
	ce, err := ParseCounterexample(strings.NewReader(d.String()))
	if err != nil {
		t.Fatalf("parsing printed counterexample: %v", err)
	}
	if ce.Pair != d.Pair || ce.Cfg != d.Cfg {
		t.Fatalf("round trip changed header: got %s %+v, want %s %+v", ce.Pair, ce.Cfg, d.Pair, d.Cfg)
	}
	if len(ce.Accesses) != len(d.Accesses) {
		t.Fatalf("round trip changed trace length: %d -> %d", len(d.Accesses), len(ce.Accesses))
	}
	for i := range ce.Accesses {
		if ce.Accesses[i] != d.Accesses[i] {
			t.Fatalf("round trip changed access %d: %+v -> %+v", i, d.Accesses[i], ce.Accesses[i])
		}
	}
	if Diff(pair, ce.Cfg, ce.Accesses) == nil {
		t.Fatal("parsed counterexample replays clean")
	}
}

// TestDiffReportsInvariantViolation pins that a production-side invariant
// panic surfaces as a divergence rather than crashing the harness. The
// wild policy returns an out-of-range victim way.
type wildVictim struct{ policy.LRU }

func (*wildVictim) Name() string { return "wild" }

func (*wildVictim) Victim(_ policy.AccessCtx, set *cache.Set) int {
	return len(set.Lines) + 3
}

func TestDiffReportsInvariantViolation(t *testing.T) {
	pair := Pair{
		Name: "lru",
		New:  func(_ []trace.Access, _ cache.Config) policy.Policy { return new(wildVictim) },
		Ref:  func(_ []trace.Access, _ cache.Config) Model { return NewLRU() },
	}
	d := Diff(pair, cache.Config{Sets: 2, Ways: 2, LineSize: 64}, genUniform(5, 200))
	if d == nil {
		t.Fatal("out-of-range victim produced no divergence")
	}
	if !strings.HasPrefix(d.Reason, "invariant") {
		t.Fatalf("reason = %q, want an invariant report", d.Reason)
	}
}

func TestPairByName(t *testing.T) {
	if _, ok := PairByName("drrip"); !ok {
		t.Fatal("drrip pair missing")
	}
	if _, ok := PairByName("no-such"); ok {
		t.Fatal("bogus pair resolved")
	}
	if p := Pairs()[8]; p.Name != "belady-bypass" {
		t.Fatalf("pair order changed: Pairs()[8] = %s", p.Name)
	}
}
