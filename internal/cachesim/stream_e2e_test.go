package cachesim

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// heapMB returns the live heap in MiB after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// TestStreamingPipelineBoundedMemory drives the streaming stack end to
// end — generate a chunked trace on disk, replay it frame by frame under a
// policy that needs no future knowledge — and asserts the live heap never
// grows by more than a fixed budget that is far below what the all-in-RAM
// pipeline needs for the same trace.
//
// At the default 4M accesses the materialized trace alone is ~96MB of
// []trace.Access; the streaming pipeline's budget here is 64MB. The same
// code path scales to ≥100M accesses unchanged (see
// TestStreamingPipeline100M).
func TestStreamingPipelineBoundedMemory(t *testing.T) {
	n := 4_000_000
	if raceEnabled || testing.Short() {
		n = 300_000 // instrumentation multiplies replay cost; keep CI fast
	}
	const budgetMB = 64.0

	spec, err := workloads.ByName("483.xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.llct")

	base := heapMB()
	check := func(stage string) {
		if grew := heapMB() - base; grew > budgetMB {
			t.Fatalf("%s: live heap grew %.1fMB, budget %.1fMB", stage, grew, budgetMB)
		}
	}

	wrote, err := workloads.WriteChunkedLLCAccesses(spec, n, path, trace.ChunkedWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wrote != uint64(n) {
		t.Fatalf("wrote %d accesses, want %d", wrote, n)
	}
	check("generate")

	cf, err := trace.OpenChunked(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()

	// Replay in quarters, auditing the heap between them: RunRange resumes
	// exactly where the previous call stopped.
	sim := New(replayCfg, 1, policy.MustNew("srrip"))
	var st Stats
	quarter := uint64(n) / 4
	for q := uint64(0); q < 4; q++ {
		len := quarter
		if q == 3 {
			len = uint64(n) - 3*quarter
		}
		if _, err := sim.RunRange(cf, q*quarter, len, 0); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("replay quarter %d", q+1))
	}
	st = sim.Stats()
	if st.Accesses != uint64(n) {
		t.Fatalf("replayed %d accesses, want %d", st.Accesses, n)
	}
	if st.Hits == 0 || st.Hits == st.Accesses {
		t.Fatalf("degenerate replay: %d/%d hits", st.Hits, st.Accesses)
	}
}

// TestStreamingPipeline100M is the ≥100M-access version of the pipeline
// test backing the EXPERIMENTS.md evidence. It writes and replays ~2.4GB
// of trace, so it only runs when explicitly requested:
//
//	STREAM_E2E_100M=1 go test -run TestStreamingPipeline100M -v ./internal/cachesim
func TestStreamingPipeline100M(t *testing.T) {
	if os.Getenv("STREAM_E2E_100M") == "" {
		t.Skip("set STREAM_E2E_100M=1 to run the 100M-access pipeline test")
	}
	const n = 100_000_000
	const budgetMB = 256.0 // vs ~2.4GB of raw trace in RAM

	spec, err := workloads.ByName("483.xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "stream100m.llct")

	base := heapMB()
	report := func(stage string) float64 {
		g := heapMB() - base
		t.Logf("%s: live heap +%.1fMB", stage, g)
		if g > budgetMB {
			t.Fatalf("%s: live heap grew %.1fMB, budget %.1fMB", stage, g, budgetMB)
		}
		return g
	}

	if _, err := workloads.WriteChunkedLLCAccesses(spec, n, path, trace.ChunkedWriterOptions{Codec: trace.CodecFlate}); err != nil {
		t.Fatal(err)
	}
	report("generate")
	if fi, err := os.Stat(path); err == nil {
		t.Logf("trace file: %.1fMB for %d accesses", float64(fi.Size())/(1<<20), n)
	}

	cf, err := trace.OpenChunked(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	sim := New(replayCfg, 1, policy.MustNew("srrip"))
	st, err := sim.RunFrames(cf)
	if err != nil {
		t.Fatal(err)
	}
	report("replay")
	t.Logf("srrip hit rate over %d accesses: %.2f%%", st.Accesses, st.HitRate())
	if st.Accesses != n {
		t.Fatalf("replayed %d accesses, want %d", st.Accesses, n)
	}
}
