package workloads

import (
	"testing"

	"repro/internal/trace"
)

func TestSuiteCounts(t *testing.T) {
	if got := len(SPECNames()); got != 29 {
		t.Errorf("SPEC workloads = %d, want 29 (the Fig 10 x-axis)", got)
	}
	if got := len(CloudNames()); got != 5 {
		t.Errorf("CloudSuite workloads = %d, want 5 (the Fig 11 x-axis)", got)
	}
	if got := len(All()); got != 34 {
		t.Errorf("total workloads = %d, want 34", got)
	}
}

func TestTrainingBenchmarksExist(t *testing.T) {
	names := TrainingNames()
	if len(names) != 8 {
		t.Fatalf("training benchmarks = %d, want 8 (§V-A)", len(names))
	}
	for _, n := range names {
		if _, err := ByName(n); err != nil {
			t.Errorf("training benchmark %q not registered: %v", n, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("999.doom"); err == nil {
		t.Error("ByName of unknown workload did not error")
	}
}

func TestDeterminism(t *testing.T) {
	spec, err := ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(spec, 5000)
	b := Generate(spec, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic at instruction %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWorkloadsDiffer(t *testing.T) {
	a := Generate(mustSpec(t, "429.mcf"), 1000)
	b := Generate(mustSpec(t, "470.lbm"), 1000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 100 {
		t.Errorf("mcf and lbm produced %d/1000 identical instructions", same)
	}
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMemRatioRealized(t *testing.T) {
	for _, name := range []string{"429.mcf", "470.lbm", "453.povray", "cassandra"} {
		spec := mustSpec(t, name)
		ins := Generate(spec, 50000)
		mem := 0
		for _, i := range ins {
			if i.Kind != trace.MemNone {
				mem++
			}
		}
		got := float64(mem) / float64(len(ins))
		if got < spec.MemRatio-0.05 || got > spec.MemRatio+0.05 {
			t.Errorf("%s: realized mem ratio %.3f, want ~%.2f", name, got, spec.MemRatio)
		}
	}
}

func TestStoreRatioRealized(t *testing.T) {
	spec := mustSpec(t, "470.lbm") // the store-heavy benchmark
	ins := Generate(spec, 50000)
	loads, stores := 0, 0
	for _, i := range ins {
		switch i.Kind {
		case trace.MemLoad:
			loads++
		case trace.MemStore:
			stores++
		}
	}
	got := float64(stores) / float64(loads+stores)
	if got < spec.StoreRatio-0.05 || got > spec.StoreRatio+0.05 {
		t.Errorf("lbm: realized store ratio %.3f, want ~%.2f", got, spec.StoreRatio)
	}
}

func TestFootprintBounded(t *testing.T) {
	// Every generated address must stay within the declared footprint plus
	// the irregular side-region (which sits just past the sweep data).
	for _, name := range []string{"462.libquantum", "429.mcf", "483.xalancbmk"} {
		spec := mustSpec(t, name)
		maxFoot := 0
		for _, ph := range spec.Phases {
			f := ph.FootprintKB
			if ph.IrregularPct > 0 {
				if ph.IrregularKB > 0 {
					f += ph.IrregularKB
				} else {
					f += 2048
				}
			}
			if f > maxFoot {
				maxFoot = f
			}
		}
		var lo, hi uint64
		first := true
		for _, ins := range Generate(spec, 100000) {
			if ins.Kind == trace.MemNone {
				continue
			}
			if first {
				lo, hi, first = ins.Addr, ins.Addr, false
				continue
			}
			if ins.Addr < lo {
				lo = ins.Addr
			}
			if ins.Addr > hi {
				hi = ins.Addr
			}
		}
		if span := hi - lo; span > uint64(maxFoot)*1024+64 {
			t.Fatalf("%s: address span %d exceeds footprint %dKB", name, span, maxFoot)
		}
	}
}

func TestStreamingIsSequential(t *testing.T) {
	// libquantum (single stream, 64B stride) must produce block addresses
	// that mostly advance by one block.
	ins := Generate(mustSpec(t, "462.libquantum"), 20000)
	var prev uint64
	seqSteps, memOps := 0, 0
	for _, i := range ins {
		if i.Kind == trace.MemNone {
			continue
		}
		blk := i.Addr / 64
		if memOps > 0 && blk == prev+1 {
			seqSteps++
		}
		prev = blk
		memOps++
	}
	if float64(seqSteps) < 0.9*float64(memOps-1) {
		t.Errorf("libquantum sequential steps %d/%d, want >= 90%%", seqSteps, memOps-1)
	}
}

func TestPointerChaseCoversFootprint(t *testing.T) {
	// The mcf chase must visit many distinct blocks (single-cycle
	// permutation), not orbit a tiny loop.
	ins := Generate(mustSpec(t, "429.mcf"), 200000)
	blocks := map[uint64]bool{}
	for _, i := range ins {
		if i.Kind != trace.MemNone {
			blocks[i.Addr/64] = true
		}
	}
	if len(blocks) < 10000 {
		t.Errorf("mcf touched only %d distinct blocks", len(blocks))
	}
}

func TestZipfPatternIsSkewed(t *testing.T) {
	ins := Generate(mustSpec(t, "483.xalancbmk"), 100000)
	counts := map[uint64]int{}
	total := 0
	for _, i := range ins {
		if i.Kind != trace.MemNone {
			counts[i.Addr/64]++
			total++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// The hottest block should be far above the uniform expectation.
	if float64(max) < 5*float64(total)/float64(len(counts)) {
		t.Errorf("xalancbmk hottest block %d not skewed (total %d over %d blocks)", max, total, len(counts))
	}
}

func TestPhasesRotate(t *testing.T) {
	// gcc has three phases; after exhausting them the generator must wrap
	// to phase 0 without panicking and with changed PC space.
	spec := mustSpec(t, "403.gcc")
	total := 0
	for _, ph := range spec.Phases {
		total += ph.Instructions
	}
	g := New(spec)
	for i := 0; i < total+1000; i++ {
		g.Next()
	}
}

func TestMixes(t *testing.T) {
	mixes := Mixes(100, 7)
	if len(mixes) != 100 {
		t.Fatalf("mixes = %d, want 100", len(mixes))
	}
	for i, m := range mixes {
		if len(m) != 4 {
			t.Fatalf("mix %d has %d entries", i, len(m))
		}
		for _, name := range m {
			if _, err := ByName(name); err != nil {
				t.Fatalf("mix %d references unknown workload %q", i, name)
			}
		}
	}
	// Deterministic given the seed.
	again := Mixes(100, 7)
	for i := range mixes {
		for j := range mixes[i] {
			if mixes[i][j] != again[i][j] {
				t.Fatal("Mixes not deterministic")
			}
		}
	}
}

func TestCloudSuiteCodeFootprint(t *testing.T) {
	for _, name := range CloudNames() {
		spec := mustSpec(t, name)
		if spec.CodeFootprint < 4096 {
			t.Errorf("%s code footprint %d; CloudSuite models large code", name, spec.CodeFootprint)
		}
	}
}

func TestNewPanicsOnEmptyPhases(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with no phases did not panic")
		}
	}()
	New(Spec{Name: "bad"})
}

// Generate materializes n instructions from a fresh generator of the spec.
func Generate(spec Spec, n int) []trace.Instr {
	g := New(spec)
	out := make([]trace.Instr, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
