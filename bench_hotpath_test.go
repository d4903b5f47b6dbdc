// bench_hotpath_test.go measures the per-access hot path: oracle next-use
// queries, one simulator step, one NN forward/backward pass, and the
// end-to-end Belady trace replay (chain-driven versus the retained
// map+binary-search reference). Run
//
//	go test -bench=Hotpath -benchmem
//
// or `make bench`; cmd/benchjson -hotpath emits the same measurements as
// BENCH_hotpath.json, including the chain-vs-map replay speedup.
package repro

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// hotpathTraceLen is sized so one replay is milliseconds, not seconds.
const hotpathTraceLen = 200_000

var hotpath struct {
	once     sync.Once
	accesses []trace.Access
	cfg      cache.Config
	oracle   *policy.Oracle
}

// hotpathSetup builds one shared synthetic trace with a hot/warm/cold
// address mix over an LLC-like geometry, plus its oracle. The oracle is
// only ever used through the read-only chain API here, so sharing it
// across benchmarks is safe.
func hotpathSetup() (cache.Config, []trace.Access, *policy.Oracle) {
	hotpath.once.Do(func() {
		rng := xrand.New(42)
		accesses := make([]trace.Access, hotpathTraceLen)
		for i := range accesses {
			var b uint64
			switch rng.Intn(4) {
			case 0: // hot: fits in cache
				b = rng.Uint64n(4096)
			case 1: // warm: ~2× cache capacity
				b = 1<<16 + rng.Uint64n(32768)
			default: // cold stream: keeps the sets full and evicting
				b = 1<<24 + uint64(i)
			}
			accesses[i] = trace.Access{PC: rng.Uint64n(64), Addr: b * 64, Type: trace.AccessType(rng.Intn(4))}
		}
		hotpath.accesses = accesses
		hotpath.cfg = cache.Config{Sets: 1024, Ways: 16, LineSize: 64}
		hotpath.oracle = policy.NewOracle(accesses, 64)
	})
	return hotpath.cfg, hotpath.accesses, hotpath.oracle
}

// BenchmarkHotpathOracleNextUseChain drives the in-order cursor path the
// way a simulator does: non-decreasing sequence numbers, one query each.
func BenchmarkHotpathOracleNextUseChain(b *testing.B) {
	_, accesses, _ := hotpathSetup()
	o := policy.NewOracle(accesses, 64) // private: cursor queries are stateful
	n := len(accesses)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := i % n
		if seq == 0 {
			o.ResetReplay()
		}
		sink += o.NextUse(accesses[seq].Addr, uint64(seq))
	}
	_ = sink
}

// BenchmarkHotpathOracleNextUseMap measures the retained random-access
// path: the cursor is parked at the trace end so every query falls back to
// the per-block position map and binary search.
func BenchmarkHotpathOracleNextUseMap(b *testing.B) {
	_, accesses, _ := hotpathSetup()
	o := policy.NewOracle(accesses, 64)
	n := len(accesses)
	o.NextUse(accesses[n-1].Addr, uint64(n-1)) // park the cursor at the end
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := i % (n - 2) // strictly behind the cursor: map path
		sink += o.NextUse(accesses[seq].Addr, uint64(seq))
	}
	_ = sink
}

// BenchmarkHotpathSimulatorStep measures one full simulator access (probe,
// metadata, policy, fill) under LRU.
func BenchmarkHotpathSimulatorStep(b *testing.B) {
	cfg, accesses, _ := hotpathSetup()
	sim := cachesim.New(cfg, 1, policy.MustNew("lru"))
	n := len(accesses)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Step(accesses[i%n])
	}
}

// BenchmarkHotpathMLPForward measures inference through the paper's
// 334-175-16 network.
func BenchmarkHotpathMLPForward(b *testing.B) {
	m := nn.NewMLP(334, 1, nn.LayerSpec{Units: 175, Act: nn.Tanh}, nn.LayerSpec{Units: 16, Act: nn.Linear})
	x := make([]float64, 334)
	for i := range x {
		x[i] = float64(i%13) / 13
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkHotpathMLPBackward measures one masked (single-action) gradient
// accumulation through the same network.
func BenchmarkHotpathMLPBackward(b *testing.B) {
	m := nn.NewMLP(334, 1, nn.LayerSpec{Units: 175, Act: nn.Tanh}, nn.LayerSpec{Units: 16, Act: nn.Linear})
	x := make([]float64, 334)
	target := make([]float64, 16)
	for i := range target {
		target[i] = math.NaN()
	}
	target[5] = 0.25
	m.Forward(x)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Backward(target)
	}
}

// paperMLP builds the paper's 334-175-16 network plus a deterministic
// input block of b samples laid out row-major for ForwardBatch.
func paperMLP(b int) (*nn.MLP, []float64) {
	m := nn.NewMLP(334, 1, nn.LayerSpec{Units: 175, Act: nn.Tanh}, nn.LayerSpec{Units: 16, Act: nn.Linear})
	xs := make([]float64, b*334)
	for i := range xs {
		xs[i] = float64(i%13) / 13
	}
	return m, xs
}

// BenchmarkHotpathMLPForwardRef measures the retained scalar reference
// path — the pre-batching baseline the batch speedups are judged against.
func BenchmarkHotpathMLPForwardRef(b *testing.B) {
	m, x := paperMLP(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ForwardRef(x)
	}
}

// benchForwardBatch reports per-sample ns for a given batch size: one
// iteration evaluates all bs inputs through the matrix kernels, and the
// reported ns/op is divided down so it compares directly with the scalar
// Forward/ForwardRef numbers.
func benchForwardBatch(b *testing.B, bs int) {
	m, xs := paperMLP(bs)
	m.EnsureBatch(bs)
	b.ResetTimer()
	b.ReportAllocs()
	start := b.Elapsed()
	for i := 0; i < b.N; i++ {
		m.ForwardBatch(xs, bs)
	}
	perSample := float64((b.Elapsed() - start).Nanoseconds()) / float64(b.N*bs)
	b.ReportMetric(perSample, "ns/sample")
}

func BenchmarkHotpathMLPForwardBatch1(b *testing.B)  { benchForwardBatch(b, 1) }
func BenchmarkHotpathMLPForwardBatch8(b *testing.B)  { benchForwardBatch(b, 8) }
func BenchmarkHotpathMLPForwardBatch32(b *testing.B) { benchForwardBatch(b, 32) }

// BenchmarkHotpathMLPBackwardBatch8 measures the batched masked-target
// gradient pass (8 samples, one live action each) per sample.
func BenchmarkHotpathMLPBackwardBatch8(b *testing.B) {
	const bs = 8
	m, xs := paperMLP(bs)
	targets := make([]float64, bs*16)
	for i := range targets {
		targets[i] = math.NaN()
	}
	for r := 0; r < bs; r++ {
		targets[r*16+(r%16)] = 0.25
	}
	m.EnsureBatch(bs)
	m.ForwardBatch(xs, bs)
	b.ResetTimer()
	b.ReportAllocs()
	start := b.Elapsed()
	for i := 0; i < b.N; i++ {
		m.BackwardBatch(targets, bs)
	}
	perSample := float64((b.Elapsed() - start).Nanoseconds()) / float64(b.N*bs)
	b.ReportMetric(perSample, "ns/sample")
}

// BenchmarkHotpathMLPQuantForward measures frozen int8 inference through
// the same network — the evaluation-only fast path.
func BenchmarkHotpathMLPQuantForward(b *testing.B) {
	m, x := paperMLP(1)
	q := nn.Quantize(m)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Forward(x)
	}
}

// TestHotpathBatchSpeedupSmoke is the CI regression gate for the batched
// kernels: ForwardBatch at B=8 must be at least 2× faster per sample than
// the scalar reference, and the batch-of-one Forward the RL agent calls
// per victim decision at least 1.5× faster. The committed
// BENCH_hotpath.json records larger ratios on the reference machine; the
// floors are generous but still catch a silent fallback to one serial
// add chain per output. Skipped under the race detector (instrumentation
// distorts timing) and in -short runs.
func TestHotpathBatchSpeedupSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("timing smoke is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing smoke skipped in -short mode")
	}
	const bs = 8
	m, xs := paperMLP(bs)
	m.EnsureBatch(bs)
	m.ForwardBatch(xs, bs) // warm scratch
	x1 := xs[:334]

	// Best-of-5 on both sides to suppress scheduler noise on loaded CI.
	const reps, iters = 5, 200
	best := func(f func()) float64 {
		bestNS := math.Inf(1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			if el := float64(time.Since(start).Nanoseconds()); el < bestNS {
				bestNS = el
			}
		}
		return bestNS / iters
	}
	refNS := best(func() { m.ForwardRef(x1) })
	batchNS := best(func() { m.ForwardBatch(xs, bs) }) / bs
	speedup := refNS / batchNS
	t.Logf("scalar ref %.0f ns/sample, batch%d %.0f ns/sample — %.2fx", refNS, bs, batchNS, speedup)
	if speedup < 2 {
		t.Errorf("batched forward speedup %.2fx below the 2x regression floor", speedup)
	}
	oneNS := best(func() { m.Forward(x1) })
	oneSpeedup := refNS / oneNS
	t.Logf("batch-of-one Forward %.0f ns — %.2fx", oneNS, oneSpeedup)
	if oneSpeedup < 1.5 {
		t.Errorf("batch-of-one forward speedup %.2fx below the 1.5x regression floor", oneSpeedup)
	}
}

// BenchmarkHotpathBeladyReplayChain replays the whole trace under the
// chain-driven Belady — the end-to-end number the ISSUE's ≥2× target is
// judged on.
func BenchmarkHotpathBeladyReplayChain(b *testing.B) {
	cfg, accesses, oracle := hotpathSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cachesim.RunPolicy(cfg, policy.NewBelady(oracle), accesses)
	}
	b.ReportMetric(float64(len(accesses)), "accesses/replay")
}

// BenchmarkHotpathBeladyReplayMapRef replays the same trace under the
// pre-change map+binary-search Belady, the baseline side of the speedup.
func BenchmarkHotpathBeladyReplayMapRef(b *testing.B) {
	cfg, accesses, oracle := hotpathSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cachesim.RunPolicy(cfg, policy.NewBeladyMapRef(oracle), accesses)
	}
	b.ReportMetric(float64(len(accesses)), "accesses/replay")
}
