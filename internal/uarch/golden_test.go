package uarch

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// goldenPath holds one digest line per case. The digests were produced by
// the discrete-event engine that RunMulti's per-instruction scheduler
// replaced, and that engine matched this package byte-for-byte at one
// core, so they pin both the single-core hierarchy and the N-core
// interleave. A deliberate timing-model change regenerates the file from
// the "got" lines this test prints.
const goldenPath = "testdata/golden_digests.txt"

// goldenCase is one timing run whose observable LLC behaviour is pinned.
type goldenCase struct {
	name    string
	cfg     Config
	pol     string
	srcs    func() []InstrSource // one source per core
	warmup  uint64
	measure uint64
}

// goldenCases is the pinned grid: the 1-core workload × policy grid on
// captured streams, the same stream with the prefetchers off and with the
// KPC-P stack, and 2/4/8/16-core SPEC mixes under four policies.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	gen := func(name string) InstrSource {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return workloads.New(spec)
	}
	capture := func(name string, n int) []trace.Instr {
		g := gen(name)
		ins := make([]trace.Instr, n)
		for i := range ins {
			ins[i] = g.Next()
		}
		return ins
	}
	const n, warmup, measure = 20_000, 4_000, 16_000
	var cases []goldenCase
	for _, bench := range []string{"429.mcf", "470.lbm", "483.xalancbmk"} {
		ins := capture(bench, n)
		for _, pol := range []string{"lru", "random", "srrip", "brrip", "drrip", "ship", "ship++", "hawkeye"} {
			cases = append(cases, goldenCase{
				name: "1core/" + bench + "/" + pol, cfg: ScaledConfig(1, 8), pol: pol,
				srcs:   func() []InstrSource { return []InstrSource{NewSliceSource(ins)} },
				warmup: warmup, measure: measure,
			})
		}
	}
	gcc := capture("403.gcc", n)
	noPF := ScaledConfig(1, 8)
	noPF.L1NextLine, noPF.L2Prefetcher = false, "none"
	kpcp := ScaledConfig(1, 8)
	kpcp.L2Prefetcher = "kpc-p"
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"nopf", noPF}, {"kpcp", kpcp}} {
		cases = append(cases, goldenCase{
			name: "1core/403.gcc/drrip/" + c.name, cfg: c.cfg, pol: "drrip",
			srcs:   func() []InstrSource { return []InstrSource{NewSliceSource(gcc)} },
			warmup: warmup, measure: measure,
		})
	}
	for _, cores := range []int{2, 4, 8, 16} {
		mix := workloads.MixesN(1, cores, 2026)[0]
		// A 128KB shared LLC, so even two cores contend for it.
		cfg := ScaledConfig(cores, 8)
		cfg.LLC.Sets = 128
		for _, pol := range []string{"lru", "drrip", "ship", "hawkeye"} {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%dcore/%s", cores, pol), cfg: cfg, pol: pol,
				srcs: func() []InstrSource {
					srcs := make([]InstrSource, len(mix))
					for i, name := range mix {
						srcs[i] = gen(name)
					}
					return srcs
				},
				warmup: 2_000, measure: 8_000,
			})
		}
	}
	return cases
}

// victimRecorder wraps a policy and hashes every Victim decision.
type victimRecorder struct {
	policy.Policy
	h     hash.Hash
	count int
}

func (r *victimRecorder) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	w := r.Policy.Victim(ctx, set)
	binary.Write(r.h, binary.LittleEndian, struct {
		Set uint32
		Way int64
	}{ctx.SetIdx, int64(w)})
	r.count++
	return w
}

// digest runs c and returns its golden line: the case name, the LLC
// access and victim counts, and a SHA-256 over the access stream, the
// victim (set, way) stream and the Results. Single-core cases run
// through RunSingle, N-core ones through RunMulti.
func (c goldenCase) digest() string {
	rec := &victimRecorder{Policy: policy.MustNew(c.pol), h: sha256.New()}
	sys := NewSystem(c.cfg, rec)
	acc, accesses := sha256.New(), 0
	sys.Hierarchy().SetLLCObserver(func(a trace.Access, hit bool) {
		binary.Write(acc, binary.LittleEndian, struct {
			PC, Addr   uint64
			Type, Core uint8
			Hit        bool
		}{a.PC, a.Addr, uint8(a.Type), a.Core, hit})
		accesses++
	})
	srcs := c.srcs()
	var results []Result
	if len(srcs) == 1 {
		results = []Result{sys.RunSingle(srcs[0], c.warmup, c.measure)}
	} else {
		results = sys.RunMulti(srcs, c.warmup, c.measure)
	}
	all := sha256.New()
	all.Write(acc.Sum(nil))
	all.Write(rec.h.Sum(nil))
	binary.Write(all, binary.LittleEndian, results)
	return fmt.Sprintf("%s accesses=%d victims=%d sha256=%x", c.name, accesses, rec.count, all.Sum(nil))
}

// loadGolden reads goldenPath into a map from case name to digest line.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want[strings.Fields(line)[0]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkGolden replays the golden cases whose name keep accepts and
// requires each to hash to its committed digest.
func checkGolden(t *testing.T, keep func(name string) bool) {
	t.Helper()
	want := loadGolden(t)
	ran := 0
	for _, c := range goldenCases(t) {
		if !keep(c.name) {
			continue
		}
		ran++
		if got := c.digest(); got != want[c.name] {
			t.Errorf("%s diverged:\n got %s\nwant %s", c.name, got, want[c.name])
		}
	}
	if ran == 0 {
		t.Fatal("no golden case selected")
	}
}

// TestGoldenDigestsCoverGrid: the digest file and the case grid name the
// same cases, so no case goes unchecked and no digest goes stale.
func TestGoldenDigestsCoverGrid(t *testing.T) {
	want := loadGolden(t)
	cases := goldenCases(t)
	for _, c := range cases {
		if _, ok := want[c.name]; !ok {
			t.Errorf("%s has no digest in %s", c.name, goldenPath)
		}
	}
	if len(want) != len(cases) {
		t.Errorf("%s has %d digests, the grid has %d cases", goldenPath, len(want), len(cases))
	}
}

// TestCrossCheckMatrix: on one core, the LLC access stream, victim
// sequence and Result of every workload × policy cell match the digests
// the discrete-event engine produced.
func TestCrossCheckMatrix(t *testing.T) {
	checkGolden(t, func(name string) bool {
		return strings.HasPrefix(name, "1core/") && !strings.HasPrefix(name, "1core/403.gcc/")
	})
}

// TestCrossCheckWithPrefetchers: the same holds with the prefetchers off
// and with the KPC-P L2 stack, which exercises the prefetch,
// pollution-gate and writeback paths.
func TestCrossCheckWithPrefetchers(t *testing.T) {
	checkGolden(t, func(name string) bool { return strings.HasPrefix(name, "1core/403.gcc/") })
}

// TestGoldenDigestsMultiCore: the 2/4/8/16-core interleaves match the
// event engine's smallest-local-time order digest for digest.
func TestGoldenDigestsMultiCore(t *testing.T) {
	checkGolden(t, func(name string) bool { return !strings.HasPrefix(name, "1core/") })
}
