package cachesim

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

func cfg() cache.Config { return cache.Config{Sets: 4, Ways: 2, LineSize: 64} }

func ld(block uint64) trace.Access {
	return trace.Access{PC: 0x400, Addr: block * 64, Type: trace.Load}
}

func TestStatsAccounting(t *testing.T) {
	sim := New(cfg(), 1, policy.MustNew("lru"))
	// Blocks 0 and 4 share set 0 (4 sets); block 8 also set 0.
	sim.Step(ld(0))                                            // miss (compulsory)
	sim.Step(ld(0))                                            // hit
	sim.Step(trace.Access{Addr: 4 * 64, Type: trace.RFO})      // miss
	sim.Step(trace.Access{Addr: 8 * 64, Type: trace.Prefetch}) // miss, evicts LRU
	st := sim.Stats()
	if st.Accesses != 4 || st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.DemandAccesses != 3 || st.DemandHits != 1 || st.DemandMisses != 2 {
		t.Errorf("demand stats = %+v", st)
	}
	if st.AccessesByType[trace.Load] != 2 || st.AccessesByType[trace.RFO] != 1 ||
		st.AccessesByType[trace.Prefetch] != 1 {
		t.Errorf("by-type stats = %+v", st.AccessesByType)
	}
	// Blocks 0, 4, 8 all map to set 0 of a 2-way cache: only the first two
	// fills land in invalid ways; the third consults the policy and evicts.
	if st.InvalidFills != 2 {
		t.Errorf("invalid-way fills = %d, want 2", st.InvalidFills)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.HitRate() != 25 {
		t.Errorf("hit rate = %v, want 25", st.HitRate())
	}
}

func TestEvictionVictimReporting(t *testing.T) {
	sim := New(cache.Config{Sets: 1, Ways: 1, LineSize: 64}, 1, policy.MustNew("lru"))
	sim.Step(trace.Access{Addr: 0, Type: trace.RFO}) // dirty fill
	res := sim.Step(ld(1))
	if !res.Evicted || !res.Victim.Dirty || res.Victim.Block != 0 {
		t.Errorf("victim = %+v, want dirty block 0", res.Victim)
	}
	if sim.Stats().DirtyEvictions != 1 {
		t.Errorf("dirty evictions = %d, want 1", sim.Stats().DirtyEvictions)
	}
}

func TestAccessPreuseTracking(t *testing.T) {
	sim := New(cfg(), 1, policy.MustNew("lru"))
	sim.TrackAccessPreuse()
	if got := sim.AccessPreuse(0); got != NeverAccessed {
		t.Errorf("first access preuse = %d, want NeverAccessed", got)
	}
	sim.Step(ld(0))
	sim.Step(ld(4)) // same set
	sim.Step(ld(4))
	// Set accesses since block 0's last access: 2 (the two block-4 ones).
	if got := sim.AccessPreuse(0); got != 2 {
		t.Errorf("access preuse = %d, want 2", got)
	}
}

// TestZooSimulatorKeepsNoPreuseHistory: with obs metrics off, a simulator
// whose policy never registers as a reader builds no history table.
func TestZooSimulatorKeepsNoPreuseHistory(t *testing.T) {
	for _, name := range policy.Names() {
		sim := New(cfg(), 1, policy.MustNew(name))
		sim.Step(ld(0))
		if sim.preuse != nil {
			t.Errorf("%s: simulator built a preuse table nothing reads", name)
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestTrackAccessPreuseRegistration(t *testing.T) {
	sim := New(cfg(), 1, policy.MustNew("lru"))
	mustPanic(t, "AccessPreuse on an untracked simulator", func() { sim.AccessPreuse(0) })

	sim.TrackAccessPreuse()
	table := sim.preuse
	sim.TrackAccessPreuse() // no-op before the first Step
	if sim.preuse != table {
		t.Error("repeated TrackAccessPreuse rebuilt the table")
	}
	sim.Step(ld(0))
	sim.TrackAccessPreuse() // already tracked: still a no-op
	if sim.preuse != table {
		t.Error("TrackAccessPreuse on a tracked simulator rebuilt the table")
	}

	late := New(cfg(), 1, policy.MustNew("lru"))
	late.Step(ld(0))
	mustPanic(t, "TrackAccessPreuse after the first Step", late.TrackAccessPreuse)
}

// preuseProbe is a stub policy whose Victim reads the simulator's access
// preuse for the missing block, the way the RL agent does.
type preuseProbe struct {
	policy.Policy
	sim  *Simulator
	seen []uint64
}

func (p *preuseProbe) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	p.seen = append(p.seen, p.sim.AccessPreuse(ctx.Addr))
	return p.Policy.Victim(ctx, set)
}

// TestVictimReadsPreusePlusOne pins what a policy sees from inside Victim:
// Step counts the miss in its set before asking for a victim, so the read
// is one more than the accesses-between count that Line.Preuse and the
// reuse-distance histogram use.
func TestVictimReadsPreusePlusOne(t *testing.T) {
	probe := &preuseProbe{Policy: policy.MustNew("lru")}
	sim := New(cache.Config{Sets: 1, Ways: 2, LineSize: 64}, 1, probe)
	probe.sim = sim
	sim.TrackAccessPreuse()
	sim.Step(ld(0))
	sim.Step(ld(1))
	sim.Step(ld(2)) // evicts block 0: accesses 1 and 2 came between
	between := sim.AccessPreuse(ld(0).Addr)
	if between != 2 {
		t.Fatalf("between-count before the access = %d, want 2", between)
	}
	sim.Step(ld(0)) // misses and asks for a victim
	if len(probe.seen) != 2 || probe.seen[1] != between+1 {
		t.Errorf("Victim read %v, want the second read to be %d", probe.seen, between+1)
	}
}

// TestSaveLoadStateBothModes: a checkpoint round-trips with and without
// the preuse history, and the resumed replay equals an uninterrupted one.
func TestSaveLoadStateBothModes(t *testing.T) {
	geo := cache.Config{Sets: 8, Ways: 2, LineSize: 64}
	var accesses []trace.Access
	for i := uint64(0); i < 600; i++ {
		accesses = append(accesses, ld((i*7+i/5)%40))
	}
	for _, tracked := range []bool{false, true} {
		build := func() *Simulator {
			s := New(geo, 1, policy.MustNew("lru"))
			if tracked {
				s.TrackAccessPreuse()
			}
			return s
		}
		whole := build()
		var want []StepResult
		for _, a := range accesses {
			want = append(want, whole.Step(a))
		}

		first := build()
		cut := len(accesses) / 2
		first.Run(accesses[:cut])
		var buf bytes.Buffer
		if err := first.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		resumed := New(geo, 1, policy.MustNew("lru"))
		if err := resumed.LoadState(&buf); err != nil {
			t.Fatalf("tracked=%v: %v", tracked, err)
		}
		if got := resumed.preuse != nil; got != tracked {
			t.Fatalf("tracked=%v: resumed simulator tracks preuse = %v", tracked, got)
		}
		// The resumed LRU's recency lives in the cache stamps, so only the
		// simulator's own state has to carry over.
		for i, a := range accesses[cut:] {
			if got := resumed.Step(a); got != want[cut+i] {
				t.Fatalf("tracked=%v: access %d: resumed %+v, uninterrupted %+v", tracked, cut+i, got, want[cut+i])
			}
		}
		for b := uint64(0); tracked && b < 40; b++ {
			if g, w := resumed.AccessPreuse(b*64), whole.AccessPreuse(b*64); g != w {
				t.Errorf("block %d: resumed preuse %d, uninterrupted %d", b, g, w)
			}
		}
		if resumed.Stats() != whole.Stats() {
			t.Errorf("tracked=%v: resumed stats %+v, uninterrupted %+v", tracked, resumed.Stats(), whole.Stats())
		}
	}
}

// TestLoadStateRefusesMissingHistory: a simulator that keeps the history
// must not silently start from an empty one.
func TestLoadStateRefusesMissingHistory(t *testing.T) {
	src := New(cfg(), 1, policy.MustNew("lru"))
	src.Step(ld(0))
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(cfg(), 1, policy.MustNew("lru"))
	dst.TrackAccessPreuse()
	if err := dst.LoadState(&buf); err == nil {
		t.Error("tracked simulator loaded state without a preuse history")
	}
}

func TestBypassingPolicy(t *testing.T) {
	pd := policy.NewPDP()
	pd.AllowBypass = true
	sim := New(cache.Config{Sets: 1, Ways: 2, LineSize: 64}, 1, pd)
	// Fill both ways, then every further miss within PD is bypassed.
	sim.Step(ld(0))
	sim.Step(ld(1))
	r := sim.Step(ld(2))
	if !r.Bypassed {
		t.Fatalf("expected bypass while all lines protected, got %+v", r)
	}
	if sim.Stats().Bypasses != 1 {
		t.Errorf("bypasses = %d, want 1", sim.Stats().Bypasses)
	}
	// Bypassed block must not be resident.
	if _, _, hit := sim.Cache().Probe(2 * 64); hit {
		t.Error("bypassed block is resident")
	}
}

func TestSeqMonotonic(t *testing.T) {
	sim := New(cfg(), 1, policy.MustNew("lru"))
	for i := uint64(0); i < 10; i++ {
		res := sim.Step(ld(i))
		if res.Seq != i {
			t.Fatalf("seq = %d, want %d", res.Seq, i)
		}
	}
	if sim.Seq() != 10 {
		t.Errorf("Seq() = %d, want 10", sim.Seq())
	}
}

func TestRunMatchesStepping(t *testing.T) {
	accesses := []trace.Access{ld(0), ld(1), ld(0), ld(9), ld(1)}
	a := New(cfg(), 1, policy.MustNew("lru")).Run(accesses)
	sim := New(cfg(), 1, policy.MustNew("lru"))
	for _, acc := range accesses {
		sim.Step(acc)
	}
	if a != sim.Stats() {
		t.Errorf("Run stats %+v != Step stats %+v", a, sim.Stats())
	}
}

func TestPreuseTableBounded(t *testing.T) {
	sim := New(cache.Config{Sets: 1, Ways: 2, LineSize: 64}, 1, policy.MustNew("lru"))
	sim.TrackAccessPreuse()
	before := sim.preuse.size()
	for i := uint64(0); i < 100000; i++ {
		sim.Step(ld(i))
	}
	if after := sim.preuse.size(); after != before {
		t.Errorf("preuse table resized under streaming: %d -> %d slots", before, after)
	}
	if before > 4096 {
		t.Errorf("preuse table oversized for a 2-line cache: %d slots", before)
	}
}

func TestPreuseTableDisplacement(t *testing.T) {
	tb := newPreuseTable(2) // minimum table: 32 slots, 4 buckets
	// Overfill one logical bucket's worth of distinct blocks; the table must
	// keep serving lookups for the most recently stamped entries and never
	// grow.
	for seq := uint32(0); seq < 10000; seq++ {
		tb.store(uint64(seq%500), seq, seq)
	}
	if tb.size() != 32 {
		t.Fatalf("table size = %d, want 32", tb.size())
	}
	// A block stored and never displaced must read back exactly.
	tb.store(12345, 777, 20000)
	if got, ok := tb.lookup(12345); !ok || got != 777 {
		t.Errorf("lookup(12345) = %d,%v; want 777,true", got, ok)
	}
	// Unknown blocks read as absent.
	if _, ok := tb.lookup(999999); ok {
		t.Errorf("lookup of never-stored block reported present")
	}
}

func TestStepZeroAllocs(t *testing.T) {
	for _, tracked := range []bool{false, true} {
		sim := New(cache.Config{Sets: 16, Ways: 4, LineSize: 64}, 1, policy.MustNew("lru"))
		if tracked {
			sim.TrackAccessPreuse()
		}
		// Warm the cache so steady-state covers hits, misses, and evictions.
		for i := uint64(0); i < 4096; i++ {
			sim.Step(ld(i % 128))
		}
		i := uint64(0)
		allocs := testing.AllocsPerRun(2000, func() {
			sim.Step(ld(i % 128))
			i++
		})
		if allocs != 0 {
			t.Errorf("tracked=%v: Simulator.Step allocates %.1f objects/op, want 0", tracked, allocs)
		}
	}
}

func TestHitRateZeroAccesses(t *testing.T) {
	var st Stats
	if st.HitRate() != 0 || st.DemandHitRate() != 0 {
		t.Error("zero-access hit rates should be 0")
	}
}
