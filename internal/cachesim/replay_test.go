package cachesim

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func replayTestTrace(t *testing.T, n int) []trace.Access {
	t.Helper()
	spec, err := workloads.ByName("483.xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	return workloads.LLCAccesses(spec, n)
}

var replayCfg = cache.Config{Sets: 64, Ways: 8, LineSize: 64}

// TestRunFramesMatchesRun: frame-granular replay must produce statistics
// identical to the all-in-RAM replay, for every frame geometry.
func TestRunFramesMatchesRun(t *testing.T) {
	accesses := replayTestTrace(t, 20000)
	want := RunPolicy(replayCfg, policy.MustNew("lru"), accesses)
	for _, frame := range []int{1, 13, 512, 1 << 16} {
		got, err := RunFramesPolicy(replayCfg, policy.MustNew("lru"), trace.NewSliceFrames(accesses, frame))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("frame=%d: stats %+v, want %+v", frame, got, want)
		}
	}
}

// TestRunFramesBeladyMatchesRun: frame replay of a real chunked container
// keeps ctx.Seq aligned with the oracle's trace indices, so the
// chain-driven Belady matches the in-memory replay exactly, with and
// without bypass.
func TestRunFramesBeladyMatchesRun(t *testing.T) {
	accesses := replayTestTrace(t, 20000)
	var buf bytes.Buffer
	cw := trace.NewChunkedWriter(&buf, trace.ChunkedWriterOptions{FrameAccesses: 1024})
	for _, a := range accesses {
		if err := cw.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewChunkedFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	o := policy.NewOracle(accesses, replayCfg.LineSize)
	for _, mk := range []func(*policy.Oracle) *policy.Belady{policy.NewBelady, policy.NewBeladyBypass} {
		want := RunPolicy(replayCfg, mk(o), accesses)
		got, err := RunFramesPolicy(replayCfg, mk(o), src)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: frame replay stats %+v, want %+v", mk(o).Name(), got, want)
		}
	}
}

// TestRunRange: a measured window must report exactly the statistics a
// manual replay of [start, start+n) observes after warmup accesses.
func TestRunRange(t *testing.T) {
	accesses := replayTestTrace(t, 30000)
	src := trace.NewSliceFrames(accesses, 777)
	for _, tc := range []struct{ start, n, warmup uint64 }{
		{0, 5000, 0},
		{100, 4000, 1000},
		{7777, 8000, 2000},
		{29990, 100, 10}, // clipped at trace end
		{0, 30000, 0},
	} {
		// Reference: fresh simulator stepped by hand.
		ref := New(replayCfg, 1, policy.MustNew("lru"))
		end := tc.start + tc.n
		if end > uint64(len(accesses)) {
			end = uint64(len(accesses))
		}
		var base Stats
		for i := tc.start; i < end; i++ {
			if i-tc.start == tc.warmup {
				base = ref.Stats()
			}
			ref.Step(accesses[i])
		}
		if end-tc.start < tc.warmup {
			base = ref.Stats()
		}
		want := diffStats(ref.Stats(), base)

		got, err := New(replayCfg, 1, policy.MustNew("lru")).RunRange(src, tc.start, tc.n, tc.warmup)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("start=%d n=%d warmup=%d: stats %+v, want %+v", tc.start, tc.n, tc.warmup, got, want)
		}
	}
}
