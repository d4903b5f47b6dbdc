package uarch

import (
	"testing"

	_ "repro/internal/core" // registers the rlr policy variants
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// nop returns n non-memory instructions at sequential PCs within one code
// block so the front end stays hot.
func nops(n int) []trace.Instr {
	out := make([]trace.Instr, n)
	for i := range out {
		out[i] = trace.Instr{PC: 0x400000 + uint64(i%8)*4, Kind: trace.MemNone}
	}
	return out
}

func TestIPCBoundedByWidth(t *testing.T) {
	cfg := DefaultConfig(1)
	sys := NewSystem(cfg, nil)
	res := sys.RunSingle(NewSliceSource(nops(16)), 1000, 100000)
	ipc := res.IPC()
	if ipc > 3.001 {
		t.Errorf("IPC = %.3f exceeds the 3-wide issue bound", ipc)
	}
	if ipc < 2.5 {
		t.Errorf("IPC = %.3f for pure nops; expected near the width bound", ipc)
	}
}

func TestL1HitLoadsNearWidthBound(t *testing.T) {
	// Loads hitting a tiny working set should sustain high IPC: L1 hits are
	// pipelined in the window model.
	ins := make([]trace.Instr, 64)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x400000, Addr: uint64(i%8) * 64, Kind: trace.MemLoad}
	}
	sys := NewSystem(DefaultConfig(1), nil)
	res := sys.RunSingle(NewSliceSource(ins), 1000, 100000)
	if res.IPC() < 2.0 {
		t.Errorf("IPC = %.3f for L1-resident loads, want near width", res.IPC())
	}
}

func TestDependentChaseIsMemoryBound(t *testing.T) {
	// Dependent loads over a footprint far beyond the LLC must expose DRAM
	// latency serially: IPC well under 1, and far under the same loads
	// marked independent.
	rng := xrand.New(3)
	mk := func(kind trace.MemKind) []trace.Instr {
		ins := make([]trace.Instr, 4096)
		for i := range ins {
			ins[i] = trace.Instr{
				PC:   0x400000,
				Addr: rng.Uint64n(256*1024) * 256, // 64MB span, sparse
				Kind: kind,
			}
		}
		return ins
	}
	dep := NewSystem(DefaultConfig(1), nil).RunSingle(NewSliceSource(mk(trace.MemLoadDep)), 2000, 20000)
	ind := NewSystem(DefaultConfig(1), nil).RunSingle(NewSliceSource(mk(trace.MemLoad)), 2000, 20000)
	if dep.IPC() > 0.2 {
		t.Errorf("dependent-chase IPC = %.3f, want memory-bound (< 0.2)", dep.IPC())
	}
	if ind.IPC() < 2*dep.IPC() {
		t.Errorf("independent loads IPC %.3f should exploit MLP over dependent %.3f", ind.IPC(), dep.IPC())
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// With a 1-entry-ish tiny ROB, independent misses serialize; with 256
	// they overlap. Same stream, different ROB, IPC must differ markedly.
	rng := xrand.New(5)
	ins := make([]trace.Instr, 4096)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x400000, Addr: rng.Uint64n(512*1024) * 128, Kind: trace.MemLoad}
	}
	small := DefaultConfig(1)
	small.ROBSize = 8
	big := DefaultConfig(1)
	a := NewSystem(small, nil).RunSingle(NewSliceSource(ins), 1000, 20000)
	b := NewSystem(big, nil).RunSingle(NewSliceSource(ins), 1000, 20000)
	if b.IPC() < 1.5*a.IPC() {
		t.Errorf("ROB 256 IPC %.3f not much better than ROB 8 IPC %.3f", b.IPC(), a.IPC())
	}
}

func TestPrefetcherHelpsStreaming(t *testing.T) {
	// A strided stream with IP-stride prefetching must beat the same
	// system without prefetching.
	ins := make([]trace.Instr, 1<<16)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x400000, Addr: uint64(i) * 64 % (64 << 20), Kind: trace.MemLoad}
	}
	with := DefaultConfig(1)
	without := DefaultConfig(1)
	without.L2Prefetcher = "none"
	without.L1NextLine = false
	a := NewSystem(with, nil).RunSingle(NewSliceSource(ins), 5000, 40000)
	b := NewSystem(without, nil).RunSingle(NewSliceSource(ins), 5000, 40000)
	if a.IPC() <= b.IPC() {
		t.Errorf("prefetching IPC %.3f should beat no-prefetch %.3f on a stream", a.IPC(), b.IPC())
	}
}

func TestLLCSeesPrefetchAndWritebackTypes(t *testing.T) {
	// Running a store-heavy streaming workload must surface all four access
	// types at the LLC — the §III-A trace property.
	spec, err := workloads.ByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	gen := workloads.New(spec)
	sys := NewSystem(DefaultConfig(1), nil)
	res := sys.RunSingle(gen, 20000, 300000)
	st := res.LLCStats
	if st.ByType[trace.Load] == 0 {
		t.Error("no LD accesses at LLC")
	}
	if st.ByType[trace.RFO] == 0 {
		t.Error("no RFO accesses at LLC")
	}
	if st.ByType[trace.Prefetch] == 0 {
		t.Error("no PF accesses at LLC")
	}
	if st.ByType[trace.Writeback] == 0 {
		t.Error("no WB accesses at LLC")
	}
}

func TestLLCObserverSeesEveryAccess(t *testing.T) {
	spec, err := workloads.ByName("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(DefaultConfig(1), nil)
	var seen uint64
	sys.Hierarchy().SetLLCObserver(func(a trace.Access, hit bool) { seen++ })
	before := sys.Hierarchy().Stats().Accesses
	sys.RunSingle(workloads.New(spec), 0, 200000)
	after := sys.Hierarchy().Stats().Accesses
	if seen != after-before {
		t.Errorf("observer saw %d accesses, stats recorded %d", seen, after-before)
	}
	if seen == 0 {
		t.Error("no LLC accesses observed")
	}
}

func TestReplacementPolicyChangesLLCBehaviour(t *testing.T) {
	// The timing simulator must actually route victim selection through the
	// policy: a hot+scan workload should show more LLC demand hits under
	// RLR than under MRU-as-worst-case.
	mkIns := func() []trace.Instr {
		var ins []trace.Instr
		scan := uint64(1 << 30)
		for rep := 0; rep < 400; rep++ {
			for b := uint64(0); b < 8192; b += 16 {
				ins = append(ins, trace.Instr{PC: 0x400100, Addr: 0x10000000 + b*64, Kind: trace.MemLoad})
			}
			for k := 0; k < 2048; k++ {
				ins = append(ins, trace.Instr{PC: 0x400200, Addr: scan, Kind: trace.MemLoad})
				scan += 64
			}
		}
		return ins
	}
	cfg := ScaledConfig(1, 8)
	run := func(pol policy.Policy) LLCStats {
		sys := NewSystem(cfg, pol)
		return sys.RunSingle(NewSliceSource(mkIns()), 50000, 400000).LLCStats
	}
	lru := run(policy.MustNew("lru"))
	rlr := run(policy.MustNew("rlr"))
	if lru.Accesses == 0 || rlr.Accesses == 0 {
		t.Fatal("no LLC traffic generated")
	}
	if rlr.DemandHits == lru.DemandHits {
		t.Error("RLR and LRU produced identical LLC demand hits; policy not wired through?")
	}
}

func TestMultiCoreRunsAndShares(t *testing.T) {
	cfg := ScaledConfig(4, 8)
	srcs := make([]InstrSource, 4)
	for i, name := range []string{"429.mcf", "470.lbm", "403.gcc", "453.povray"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = workloads.New(spec)
	}
	sys := NewSystem(cfg, policy.MustNew("lru"))
	results := sys.RunMulti(srcs, 10000, 100000)
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for i, r := range results {
		if r.Instructions != 100000 {
			t.Errorf("core %d retired %d, want 100000", i, r.Instructions)
		}
		if r.IPC() <= 0 || r.IPC() > 3.001 {
			t.Errorf("core %d IPC %.3f out of range", i, r.IPC())
		}
	}
	// povray (cache resident) must run faster than mcf (pointer chase).
	if results[3].IPC() <= results[0].IPC() {
		t.Errorf("povray IPC %.3f should exceed mcf IPC %.3f", results[3].IPC(), results[0].IPC())
	}
}

func TestRunMultiPanicsOnSourceMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunMulti with wrong source count did not panic")
		}
	}()
	NewSystem(DefaultConfig(2), nil).RunMulti([]InstrSource{NewSliceSource(nops(4))}, 0, 10)
}

func TestSliceSourceWraps(t *testing.T) {
	s := NewSliceSource([]trace.Instr{{PC: 1}, {PC: 2}})
	got := []uint64{s.Next().PC, s.Next().PC, s.Next().PC, s.Next().PC}
	want := []uint64{1, 2, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrap sequence %v, want %v", got, want)
		}
	}
}

// TestFirstFetchAtPCZeroPaysPenalty: the very first instruction of a
// stream whose PC falls in block 0 must still pay its L1I fetch.
// Regression: coreState.fetchBlock started at 0, so a PC>>6 == 0 first
// fetch was treated as already-fetched and never touched the hierarchy.
func TestFirstFetchAtPCZeroPaysPenalty(t *testing.T) {
	cfg := DefaultConfig(1)
	sys := NewSystem(cfg, nil)
	c := sys.cores[0]
	c.step(sys.h, 0, trace.Instr{PC: 0, Kind: trace.MemNone})
	if _, _, hit := sys.h.l1i[0].dir.probe(0); !hit {
		t.Error("first instruction at PC 0 never fetched its block into L1I")
	}
	// The cold fetch misses to DRAM, so the first retire reflects it.
	if c.lastRetire < cfg.DRAMLatency {
		t.Errorf("first instruction at PC 0 retired at %d, expected a cold fetch penalty >= %d",
			c.lastRetire, cfg.DRAMLatency)
	}
}

// TestRunMultiDeterministicAcrossRuns: the smallest-local-time interleave
// must be byte-identical across repeated runs of the same mixed workloads.
func TestRunMultiDeterministicAcrossRuns(t *testing.T) {
	mk := func() []Result {
		cfg := ScaledConfig(4, 8)
		srcs := make([]InstrSource, 4)
		for i, name := range []string{"429.mcf", "470.lbm", "403.gcc", "450.soplex"} {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = workloads.New(spec)
		}
		return NewSystem(cfg, policy.MustNew("drrip")).RunMulti(srcs, 5000, 40000)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RunMulti not deterministic: core %d %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRunMultiSymmetricSourcesCoreOrderInvariant: with identical sources on
// every core, per-core results must not depend on how the (identical)
// sources were constructed or assigned — the interleave is a pure function
// of local times with a deterministic tie-break, so relabeling cores of a
// symmetric run must reproduce the same result vector.
func TestRunMultiSymmetricSourcesCoreOrderInvariant(t *testing.T) {
	spec, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	run := func(order []int) []Result {
		srcs := make([]InstrSource, len(order))
		for _, i := range order {
			srcs[i] = workloads.New(spec)
		}
		return NewSystem(ScaledConfig(len(order), 8), policy.MustNew("lru")).RunMulti(srcs, 2000, 20000)
	}
	for _, orders := range [][2][]int{
		{{0, 1, 2, 3}, {3, 2, 1, 0}},
		{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 5, 3, 1, 6, 4, 2, 0}},
	} {
		a, b := run(orders[0]), run(orders[1])
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%d-core symmetric RunMulti depends on source construction order: core %d %+v vs %+v",
					len(a), i, a[i], b[i])
			}
		}
	}
}

// TestRunMultiDeterministic: repeated runs of a 4-core mix reproduce not
// only the Results but the whole LLC access stream and victim sequence.
func TestRunMultiDeterministic(t *testing.T) {
	c := goldenCase{
		name: "4core/drrip", cfg: ScaledConfig(4, 16), pol: "drrip",
		srcs: func() []InstrSource {
			srcs := make([]InstrSource, 4)
			for i, name := range []string{"429.mcf", "470.lbm", "403.gcc", "450.soplex"} {
				spec, err := workloads.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				srcs[i] = workloads.New(spec)
			}
			return srcs
		},
		warmup: 2_000, measure: 10_000,
	}
	if a, b := c.digest(), c.digest(); a != b {
		t.Fatalf("RunMulti not deterministic:\n%s\n%s", a, b)
	}
}

// TestRunMultiSymmetricCoreOrderInvariant: relabeling the cores of a
// symmetric run is a no-op under a policy with global state too — DRRIP's
// set-dueling counter and BRRIP insertions see the same access order
// whichever way the identical sources were constructed.
func TestRunMultiSymmetricCoreOrderInvariant(t *testing.T) {
	spec, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"lru", "drrip"} {
		run := func(order []int) []Result {
			srcs := make([]InstrSource, len(order))
			for _, i := range order {
				srcs[i] = workloads.New(spec)
			}
			return NewSystem(ScaledConfig(len(order), 16), policy.MustNew(pol)).RunMulti(srcs, 1_000, 8_000)
		}
		a, b := run([]int{0, 1, 2, 3}), run([]int{3, 2, 1, 0})
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: symmetric RunMulti depends on source construction order: core %d %+v vs %+v",
					pol, i, a[i], b[i])
			}
		}
	}
}

// TestEightCoreRunCompletes: an 8-core mix completes with per-core results
// and shared-LLC contention visible in the stats.
func TestEightCoreRunCompletes(t *testing.T) {
	names := []string{"429.mcf", "470.lbm", "403.gcc", "450.soplex",
		"483.xalancbmk", "471.omnetpp", "437.leslie3d", "459.GemsFDTD"}
	srcs := make([]InstrSource, len(names))
	for i, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = workloads.New(spec)
	}
	sys := NewSystem(ScaledConfig(8, 16), policy.MustNew("drrip"))
	res := sys.RunMulti(srcs, 1_000, 4_000)
	if len(res) != 8 {
		t.Fatalf("got %d results, want 8", len(res))
	}
	for i, r := range res {
		if r.Cycles == 0 || r.IPC() <= 0 {
			t.Errorf("core %d: empty result %+v", i, r)
		}
	}
	if st := sys.Hierarchy().Stats(); st.Accesses == 0 || st.DemandMisses == 0 {
		t.Errorf("no shared-LLC traffic recorded: %+v", st)
	}
}

// TestRunSingleMatchesOneCoreRunMulti: on a 1-core system, RunMulti's
// scheduler has one candidate and must reproduce RunSingle exactly.
func TestRunSingleMatchesOneCoreRunMulti(t *testing.T) {
	spec, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *System { return NewSystem(ScaledConfig(1, 16), policy.MustNew("lru")) }
	r1 := mk().RunSingle(workloads.New(spec), 1_000, 8_000)
	r2 := mk().RunMulti([]InstrSource{workloads.New(spec)}, 1_000, 8_000)[0]
	if r1 != r2 {
		t.Fatalf("RunSingle %+v != 1-core RunMulti %+v", r1, r2)
	}
}

func TestDeterministicTiming(t *testing.T) {
	spec, err := workloads.ByName("450.soplex")
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		return NewSystem(ScaledConfig(1, 4), policy.MustNew("rlr")).
			RunSingle(workloads.New(spec), 10000, 100000)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("timing run not deterministic: %+v vs %+v", a, b)
	}
}

func TestIPStrideDetectsStride(t *testing.T) {
	p := NewIPStride(2)
	var got []uint64
	for i := 0; i < 10; i++ {
		got = p.OnAccess(0x400, uint64(i)*128, false)
	}
	if len(got) != 2 {
		t.Fatalf("prefetches = %d, want 2 after stride training", len(got))
	}
	// Stride is 2 blocks (128B): next prefetch = addr + 128, +256.
	base := uint64(9) * 128
	if got[0] != base+128 || got[1] != base+256 {
		t.Errorf("prefetch addrs = %#x,%#x, want %#x,%#x", got[0], got[1], base+128, base+256)
	}
}

func TestIPStrideIgnoresRandom(t *testing.T) {
	p := NewIPStride(2)
	rng := xrand.New(9)
	issued := 0
	for i := 0; i < 1000; i++ {
		issued += len(p.OnAccess(0x400, rng.Uint64n(1<<30)&^63, false))
	}
	if issued > 50 {
		t.Errorf("IP-stride issued %d prefetches on random addresses", issued)
	}
}

func TestKPCPConfidenceGates(t *testing.T) {
	p := NewKPCP(2)
	// Train a strong stride.
	var last []uint64
	for i := 0; i < 30; i++ {
		last = p.OnAccess(0x500, uint64(i)*64, false)
	}
	if len(last) == 0 {
		t.Fatal("KPC-P issued nothing after strong training")
	}
	if !p.Confidence(last[0]) {
		t.Error("strongly trained prefetch not high-confidence")
	}
	if !p.FillL2(last[0]) {
		t.Error("strongly trained prefetch should fill L2")
	}
	// A freshly-seen PC with two accesses has low confidence.
	p2 := NewKPCP(2)
	p2.OnAccess(0x600, 0, false)
	p2.OnAccess(0x600, 64, false)
	out := p2.OnAccess(0x600, 128, false)
	for _, a := range out {
		if p2.Confidence(a) {
			t.Error("low-confidence prefetch reported high confidence")
		}
	}
}
