// hotpath_test.go measures the agent's network on the per-access hot path:
// the paper's 334-175-16 MLP forward and backward, scalar, batched and
// int8, one whole training step, and the batch-of-one forward on an
// agent-shaped input at the paper's width and at the `bench` scale's
// hidden width of 24. Run
//
//	go test -run '^$' -bench Hotpath -benchmem ./internal/nn
//
// or `make bench`, which converts these rows and the root package's
// simulator rows into BENCH_hotpath.json. Each benchmark runs its
// operation once before the timer starts, so lazily allocated scratch and
// training state never count as per-op allocations.
package nn

import (
	"math"
	"testing"
	"time"

	"repro/internal/xrand"
)

// paperMLP builds the paper's 334-175-16 network plus a deterministic
// input block of b samples laid out row-major for ForwardBatch.
func paperMLP(b int) (*MLP, []float64) {
	m := NewMLP(334, 1, LayerSpec{Units: 175, Act: Tanh}, LayerSpec{Units: 16, Act: Linear})
	xs := make([]float64, b*334)
	for i := range xs {
		xs[i] = float64(i%13) / 13
	}
	return m, xs
}

// agentInput returns a deterministic 334-wide input laid out like the RL
// agent's state for a 16-way set (rl.Featurizer): 11 access entries, 3 set
// entries and 20 per way, as 6-bit binary offsets, one-hot access types
// and normalized counters, many of which are 0 on a real trace (a line
// seldom sees RFO, prefetch or writeback accesses). 192 of its entries
// (57%) are exact zeros, the share in the decisions of perfbench
// `rl-train`'s epoch. dense replaces every zero by 0.5, the same shape
// with nothing for the 1-row path to skip.
func agentInput() (sparse, dense []float64) {
	rng := xrand.New(1)
	x := make([]float64, 0, 334)
	bits6 := func() {
		v := rng.Uint64n(64)
		for b := 0; b < 6; b++ {
			x = append(x, float64(v>>b&1))
		}
	}
	oneHot4 := func() {
		k := rng.Uint64n(4)
		for i := uint64(0); i < 4; i++ {
			v := 0.0
			if i == k {
				v = 1
			}
			x = append(x, v)
		}
	}
	// frac appends a counter that is 0 with probability pct/100.
	frac := func(pct uint64) {
		v := 0.0
		if rng.Uint64n(100) >= pct {
			v = float64(rng.Uint64n(1000)+1) / 1000
		}
		x = append(x, v)
	}
	bits6()
	frac(10)
	oneHot4()
	frac(0)
	frac(0)
	frac(20)
	for w := 0; w < 16; w++ {
		bits6()
		frac(50) // dirty
		frac(50) // line preuse
		frac(0)  // age since insertion
		frac(10) // age since last access
		oneHot4()
		frac(20)  // LD count
		frac(100) // RFO count
		frac(100) // PF count
		frac(100) // WB count
		frac(50)  // hits since insertion
		x = append(x, float64(w)/15)
	}
	dense = make([]float64, len(x))
	for i, v := range x {
		dense[i] = v
		if v == 0 {
			dense[i] = 0.5
		}
	}
	return x, dense
}

// maskedTargets returns b rows of 16 targets with one live action each
// (row r trains action r%16), the shape of a DQN minibatch.
func maskedTargets(b int) []float64 {
	targets := make([]float64, b*16)
	for i := range targets {
		targets[i] = math.NaN()
	}
	for r := 0; r < b; r++ {
		targets[r*16+(r%16)] = 0.25
	}
	return targets
}

// benchOp times op per call, after one untimed warm-up call.
func benchOp(b *testing.B, op func()) {
	op()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// benchPerSample times op like benchOp and also reports ns per sample for
// an op that evaluates bs samples, so batched rows compare directly with
// the scalar Forward/ForwardRef numbers.
func benchPerSample(b *testing.B, bs int, op func()) {
	benchOp(b, op)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bs), "ns/sample")
}

// BenchmarkHotpathMLPForward measures inference through the paper's
// network.
func BenchmarkHotpathMLPForward(b *testing.B) {
	m, x := paperMLP(1)
	benchOp(b, func() { m.Forward(x) })
}

// BenchmarkHotpathMLPBackward measures one masked (single-action) gradient
// accumulation through the same network.
func BenchmarkHotpathMLPBackward(b *testing.B) {
	m, x := paperMLP(1)
	target := maskedTargets(1)
	m.Forward(x)
	benchOp(b, func() { m.Backward(target) })
}

// BenchmarkHotpathMLPForwardRef measures the scalar reference path, the
// pre-batching baseline the batch speedups are judged against.
func BenchmarkHotpathMLPForwardRef(b *testing.B) {
	m, x := paperMLP(1)
	benchOp(b, func() { m.ForwardRef(x) })
}

// benchForwardAgent measures the batch-of-one Forward the agent calls per
// victim decision, on the agent-shaped input, with the given hidden width.
func benchForwardAgent(b *testing.B, hidden int) {
	m := NewMLP(334, 1, LayerSpec{Units: hidden, Act: Tanh}, LayerSpec{Units: 16, Act: Linear})
	x, _ := agentInput()
	benchOp(b, func() { m.Forward(x) })
}

// BenchmarkHotpathMLPForwardAgent runs the paper's 334-175-16 network,
// BenchmarkHotpathMLPForwardAgentHidden24 the 334-24-16 network of the
// `bench` experiment scale.
func BenchmarkHotpathMLPForwardAgent(b *testing.B)         { benchForwardAgent(b, 175) }
func BenchmarkHotpathMLPForwardAgentHidden24(b *testing.B) { benchForwardAgent(b, 24) }

// benchForwardBatch reports per-sample ns for a given batch size: one
// iteration evaluates all bs inputs through the matrix kernels.
func benchForwardBatch(b *testing.B, bs int) {
	m, xs := paperMLP(bs)
	m.EnsureBatch(bs)
	benchPerSample(b, bs, func() { m.ForwardBatch(xs, bs) })
}

func BenchmarkHotpathMLPForwardBatch1(b *testing.B)  { benchForwardBatch(b, 1) }
func BenchmarkHotpathMLPForwardBatch8(b *testing.B)  { benchForwardBatch(b, 8) }
func BenchmarkHotpathMLPForwardBatch32(b *testing.B) { benchForwardBatch(b, 32) }

// BenchmarkHotpathMLPBackwardBatch8 measures the batched masked-target
// gradient pass (8 samples, one live action each) per sample.
func BenchmarkHotpathMLPBackwardBatch8(b *testing.B) {
	const bs = 8
	m, xs := paperMLP(bs)
	targets := maskedTargets(bs)
	m.EnsureBatch(bs)
	m.ForwardBatch(xs, bs)
	benchPerSample(b, bs, func() { m.BackwardBatch(targets, bs) })
}

// BenchmarkHotpathMLPTrainStepBatch32 measures one whole agent training
// step at its default minibatch of 32: forward, masked backward and Adam
// update, per step.
func BenchmarkHotpathMLPTrainStepBatch32(b *testing.B) {
	const bs = 32
	m, xs := paperMLP(bs)
	targets := maskedTargets(bs)
	m.EnsureBatch(bs)
	benchOp(b, func() {
		m.ForwardBatch(xs, bs)
		m.BackwardBatch(targets, bs)
		m.AdamStep(1e-3, bs)
	})
}

// BenchmarkHotpathMLPQuantForward measures frozen int8 inference through
// the same network, the evaluation-only fast path.
func BenchmarkHotpathMLPQuantForward(b *testing.B) {
	m, x := paperMLP(1)
	q := Quantize(m)
	benchOp(b, func() { q.Forward(x) })
}

// TestHotpathBatchSpeedupSmoke is the CI regression gate for the batched
// kernels: ForwardBatch at B=8 must be at least 2× faster per sample than
// the scalar reference, and the batch-of-one Forward the RL agent calls
// per victim decision at least 1.5× faster. The agent-shaped input must
// also run at least 1.3× faster than its dense twin: that floor catches a
// 1-row path that stops skipping zero inputs. The committed
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
	sparse, dense := agentInput()
	zeros := 0
	for _, v := range sparse {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 192 {
		t.Fatalf("agent-shaped input has %d zeros, want 192", zeros)
	}

	// Best-of-7, with the kernels timed in turn inside each repetition: a
	// burst of load from other processes then lands on all of them instead
	// of skewing one side of a ratio.
	const reps, iters = 7, 200
	timeIt := func(f func()) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	refNS, batchNS, oneNS := math.Inf(1), math.Inf(1), math.Inf(1)
	sparseNS, denseNS := math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		refNS = math.Min(refNS, timeIt(func() { m.ForwardRef(x1) }))
		batchNS = math.Min(batchNS, timeIt(func() { m.ForwardBatch(xs, bs) })/bs)
		oneNS = math.Min(oneNS, timeIt(func() { m.Forward(x1) }))
		sparseNS = math.Min(sparseNS, timeIt(func() { m.Forward(sparse) }))
		denseNS = math.Min(denseNS, timeIt(func() { m.Forward(dense) }))
	}
	speedup := refNS / batchNS
	t.Logf("scalar ref %.0f ns/sample, batch%d %.0f ns/sample — %.2fx", refNS, bs, batchNS, speedup)
	if speedup < 2 {
		t.Errorf("batched forward speedup %.2fx below the 2x regression floor", speedup)
	}
	oneSpeedup := refNS / oneNS
	t.Logf("batch-of-one Forward %.0f ns — %.2fx", oneNS, oneSpeedup)
	if oneSpeedup < 1.5 {
		t.Errorf("batch-of-one forward speedup %.2fx below the 1.5x regression floor", oneSpeedup)
	}
	skip := denseNS / sparseNS
	t.Logf("batch-of-one Forward, agent-shaped %.0f ns, dense %.0f ns — %.2fx", sparseNS, denseNS, skip)
	if skip < 1.3 {
		t.Errorf("agent-shaped input speedup %.2fx over dense below the 1.3x regression floor", skip)
	}
}
