package cachesim

// Mutation tests for the invariant checker: each evil policy injects one
// specific corruption into the simulator or its own state, and the checker
// must catch it with a typed *InvariantViolation naming that corruption.
// These pin the acceptance criterion that a deliberately seeded bug cannot
// run silently under `-tags simcheck`.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

var mutCfg = cache.Config{Sets: 2, Ways: 2, LineSize: 64}

// mutTrace misses enough to fill both sets and force victim decisions.
func mutTrace(n int) []trace.Access {
	out := make([]trace.Access, n)
	for i := range out {
		out[i] = trace.Access{PC: 0x400000, Addr: uint64(i%7) * 64, Type: trace.Load}
	}
	return out
}

// expectViolation runs the trace with invariants on and asserts a panic
// with an *InvariantViolation whose reason contains want.
func expectViolation(t *testing.T, p policy.Policy, want string) {
	t.Helper()
	s := New(mutCfg, 1, p)
	s.EnableInvariants()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: corruption ran to completion without a violation", want)
		}
		iv, ok := r.(*InvariantViolation)
		if !ok {
			t.Fatalf("%s: panic value %T, want *InvariantViolation", want, r)
		}
		if !strings.Contains(iv.Reason, want) {
			t.Fatalf("violation reason %q does not mention %q", iv.Reason, want)
		}
		if iv.Error() == "" || iv.Policy == "" {
			t.Fatalf("violation misses context: %+v", iv)
		}
		var err error = iv
		var target *InvariantViolation
		if !errors.As(err, &target) {
			t.Fatal("InvariantViolation does not satisfy errors.As")
		}
	}()
	s.Run(mutTrace(64))
}

// outOfRangeVictim returns a way index past the set.
type outOfRangeVictim struct{ policy.LRU }

func (*outOfRangeVictim) Victim(_ policy.AccessCtx, set *cache.Set) int {
	return len(set.Lines) + 1
}

// recencyCorruptor copies the neighbour's recency stamp onto the filled
// line, so two lines tie and the derived ranks stop being a permutation
// of 0..ways-1.
type recencyCorruptor struct{ policy.LRU }

func (*recencyCorruptor) Update(_ policy.AccessCtx, set *cache.Set, way int, hit bool) {
	if !hit {
		set.Lines[way].TouchedAt = set.Lines[1-way].TouchedAt
	}
}

// ageStampCorruptor stamps the filled line's last access one set access in
// the future, so its age since last access would underflow.
type ageStampCorruptor struct{ policy.LRU }

func (*ageStampCorruptor) Update(_ policy.AccessCtx, set *cache.Set, way int, hit bool) {
	if !hit {
		set.Lines[way].AccessedAt = set.Accesses + 1
	}
}

// tagDuplicator copies the touched way's tag over its neighbour once both
// are valid. (The untouched way is the one corrupted so the accessed block
// still sits at its reported way: the duplicate-tag check itself must fire,
// not the placement check.)
type tagDuplicator struct{ policy.LRU }

func (*tagDuplicator) Update(_ policy.AccessCtx, set *cache.Set, way int, _ bool) {
	other := 1 - way
	if set.Lines[0].Valid && set.Lines[1].Valid {
		set.Lines[other].Tag = set.Lines[way].Tag
		set.Lines[other].Block = set.Lines[way].Block
	}
}

// selfCheckFailer reports a broken internal invariant from the first access.
type selfCheckFailer struct{ policy.LRU }

func (*selfCheckFailer) CheckInvariants() error {
	return errors.New("rrpv 9 exceeds width")
}

func TestInvariantCatchesOutOfRangeVictim(t *testing.T) {
	expectViolation(t, &outOfRangeVictim{}, "outside [0, 2)")
}

func TestInvariantCatchesRecencyCorruption(t *testing.T) {
	expectViolation(t, &recencyCorruptor{}, "recency")
}

func TestInvariantCatchesAgeStampDisorder(t *testing.T) {
	expectViolation(t, &ageStampCorruptor{}, "age stamps out of order")
}

func TestInvariantCatchesDuplicateTag(t *testing.T) {
	expectViolation(t, &tagDuplicator{}, "duplicate tag")
}

func TestInvariantCatchesPolicySelfCheck(t *testing.T) {
	expectViolation(t, &selfCheckFailer{}, "self-check")
}

// TestDisabledCheckerIsInert pins two things: with checking off the same
// corrupted run completes (no hidden checking), and for a healthy policy
// the checker's presence leaves the statistics byte-identical — the
// experiment tables cannot depend on whether simcheck was on.
func TestDisabledCheckerIsInert(t *testing.T) {
	s := New(mutCfg, 1, &recencyCorruptor{})
	s.DisableInvariants() // explicit: the simcheck build tag may have enabled it
	s.Run(mutTrace(64))   // must not panic

	tr := mutTrace(512)
	on := New(mutCfg, 1, policy.MustNew("drrip"))
	on.EnableInvariants()
	off := New(mutCfg, 1, policy.MustNew("drrip"))
	off.DisableInvariants()
	a, b := on.Run(tr), off.Run(tr)
	if a != b {
		t.Fatalf("checker changed results: with=%+v without=%+v", a, b)
	}
}

// alwaysBypass refuses every replacement.
type alwaysBypass struct{ policy.LRU }

func (*alwaysBypass) Victim(policy.AccessCtx, *cache.Set) int { return policy.Bypass }

// TestBypassNeverFillsOrPerturbs pins the bypass contract: once the cache
// is warm, a bypassing policy's misses change neither the tag array nor the
// per-line replacement metadata, and every such miss is accounted as a
// bypass.
func TestBypassNeverFillsOrPerturbs(t *testing.T) {
	s := New(mutCfg, 1, &alwaysBypass{})
	s.EnableInvariants()

	// Warm: fill both ways of both sets (invalid-way fills bypass nothing).
	var warm []trace.Access
	for i := 0; i < 4; i++ {
		warm = append(warm, trace.Access{PC: 1, Addr: uint64(i) * 64, Type: trace.Load})
	}
	s.Run(warm)
	if st := s.Stats(); st.InvalidFills != 4 || st.Bypasses != 0 {
		t.Fatalf("warmup stats: %+v", st)
	}
	snapshot := func() []cache.Line {
		var lines []cache.Line
		for i := 0; i < mutCfg.Sets; i++ {
			lines = append(lines, s.Cache().Set(uint32(i)).Lines...)
		}
		return lines
	}
	before := snapshot()

	// Conflicting misses: every one must bypass.
	var misses []trace.Access
	for i := 4; i < 40; i++ {
		misses = append(misses, trace.Access{PC: 1, Addr: uint64(i) * 64, Type: trace.Load})
	}
	s.Run(misses)
	st := s.Stats()
	if st.Bypasses != uint64(len(misses)) {
		t.Fatalf("bypasses = %d, want %d", st.Bypasses, len(misses))
	}
	if st.Evictions != 0 {
		t.Fatalf("bypassing policy evicted %d lines", st.Evictions)
	}
	after := snapshot()
	for i := range before {
		if before[i].Tag != after[i].Tag || before[i].Valid != after[i].Valid ||
			before[i].TouchedAt != after[i].TouchedAt || before[i].Block != after[i].Block {
			t.Fatalf("bypass perturbed line %d:\nbefore %+v\nafter  %+v", i, before[i], after[i])
		}
	}

	// Hits on resident blocks must still work (and perturb recency normally).
	res := s.Step(trace.Access{PC: 1, Addr: 0, Type: trace.Load})
	if !res.Hit {
		t.Fatal("resident block missed after bypass storm")
	}
}

// TestPredictorSaturationUnderAdversarialTraining runs the predictor-based
// policies through a trace designed to slam their counters into both rails
// — a single PC hammering a tiny reuse set (train-up far past saturation),
// then a conflict storm of dead blocks (train-down far past zero) — with
// per-access self-checks on. An off-by-one in any SHCT, Hawkeye predictor,
// or OPTgen occupancy bound panics here.
func TestPredictorSaturationUnderAdversarialTraining(t *testing.T) {
	var tr []trace.Access
	for i := 0; i < 4000; i++ {
		tr = append(tr, trace.Access{PC: 0x400008, Addr: uint64(i%3) * 64, Type: trace.Load})
	}
	for i := 0; i < 4000; i++ {
		tr = append(tr, trace.Access{PC: 0x400008, Addr: uint64(100+i) * 64, Type: trace.Load})
	}
	// Writeback and prefetch interleave: the typed train/skip paths.
	for i := 0; i < 2000; i++ {
		ty := trace.Prefetch
		if i%2 == 0 {
			ty = trace.Writeback
		}
		tr = append(tr, trace.Access{PC: 0x400010, Addr: uint64(i%5) * 64, Type: ty})
	}
	for _, name := range []string{"ship", "ship++", "hawkeye"} {
		p := policy.MustNew(name)
		s := New(cache.Config{Sets: 4, Ways: 2, LineSize: 64}, 1, p)
		s.EnableInvariants()
		s.Run(tr) // panics on any counter out of its CRC2 width
		if c, ok := p.(policy.InvariantChecker); ok {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s: final self-check: %v", name, err)
			}
		} else {
			t.Fatalf("%s does not implement InvariantChecker", name)
		}
	}
}
