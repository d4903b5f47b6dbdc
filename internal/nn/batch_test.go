package nn

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// testShapes covers the tile boundaries of the kernels (4-row groups,
// 8-column tiles, 16-column strips): widths below one tile, exact
// multiples, ragged remainders, inputs of 1–3, and the paper-sized net.
var testShapes = []struct {
	name   string
	inputs int
	specs  []LayerSpec
}{
	{"tiny", 3, []LayerSpec{{Units: 2, Act: Tanh}, {Units: 1, Act: Linear}}},
	{"exact-tiles", 8, []LayerSpec{{Units: 4, Act: Tanh}, {Units: 4, Act: Linear}}},
	{"ragged", 7, []LayerSpec{{Units: 5, Act: ReLU}, {Units: 3, Act: Linear}}},
	{"wide", 70, []LayerSpec{{Units: 33, Act: Tanh}, {Units: 9, Act: Linear}}},
	{"deep", 13, []LayerSpec{{Units: 11, Act: Tanh}, {Units: 7, Act: ReLU}, {Units: 5, Act: Tanh}, {Units: 2, Act: Linear}}},
	{"paper", 334, []LayerSpec{{Units: 175, Act: Tanh}, {Units: 16, Act: Linear}}},
	{"kband", 1200, []LayerSpec{{Units: 6, Act: Tanh}, {Units: 2, Act: Linear}}}, // spans multiple k-bands
	{"in1", 1, []LayerSpec{{Units: 9, Act: Tanh}, {Units: 1, Act: Linear}}},
	{"in2", 2, []LayerSpec{{Units: 3, Act: ReLU}, {Units: 7, Act: Linear}}},
	{"strips", 3, []LayerSpec{{Units: 17, Act: Tanh}, {Units: 15, Act: Tanh}, {Units: 5, Act: Linear}}},
}

// testBatches covers 1–3 rows (the 1-row kernel only), exact 4-row
// groups, and 5–7 rows (full groups plus 1-row remainders).
var testBatches = []int{1, 2, 3, 4, 5, 6, 7, 8, 17, 32}

func randInputs(rng *xrand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()*4 - 2
	}
	return xs
}

// maskTargets returns row-major targets where each row has one live
// component (the DQN shape) when sparse, or all-live rows otherwise.
func maskTargets(rng *xrand.Rand, b, out int, sparse bool) []float64 {
	ts := make([]float64, b*out)
	for r := 0; r < b; r++ {
		live := int(rng.Uint64n(uint64(out)))
		for o := 0; o < out; o++ {
			if sparse && o != live {
				ts[r*out+o] = math.NaN()
			} else {
				ts[r*out+o] = rng.Float64()*2 - 1
			}
		}
	}
	return ts
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestForwardBatchBitIdenticalToRef: every row of a batched forward must
// be bit-for-bit the scalar reference result — same summation order, not
// merely close.
func TestForwardBatchBitIdenticalToRef(t *testing.T) {
	for _, sh := range testShapes {
		t.Run(sh.name, func(t *testing.T) {
			m := NewMLP(sh.inputs, 42, sh.specs...)
			ref := NewMLP(sh.inputs, 42, sh.specs...)
			rng := xrand.New(99)
			for _, b := range testBatches {
				xs := randInputs(rng, b*sh.inputs)
				got := m.ForwardBatch(xs, b)
				out := m.OutputSize()
				for r := 0; r < b; r++ {
					want := ref.ForwardRef(xs[r*sh.inputs : (r+1)*sh.inputs])
					for o := 0; o < out; o++ {
						if !bitsEqual(got[r*out+o], want[o]) {
							t.Fatalf("b=%d row %d out %d: batch %x ref %x",
								b, r, o, math.Float64bits(got[r*out+o]), math.Float64bits(want[o]))
						}
					}
				}
			}
		})
	}
}

// TestBackwardBatchBitIdenticalToRef: gradients accumulated by one
// BackwardBatch call must be bit-identical to running the scalar
// reference forward+backward over the rows in order — for dense targets
// and for DQN-style one-live-component masked targets.
func TestBackwardBatchBitIdenticalToRef(t *testing.T) {
	for _, sh := range testShapes {
		for _, sparse := range []bool{false, true} {
			name := sh.name + "/dense"
			if sparse {
				name = sh.name + "/masked"
			}
			t.Run(name, func(t *testing.T) {
				m := NewMLP(sh.inputs, 7, sh.specs...)
				ref := NewMLP(sh.inputs, 7, sh.specs...)
				rng := xrand.New(5)
				for _, b := range testBatches {
					xs := randInputs(rng, b*sh.inputs)
					ts := maskTargets(rng, b, m.OutputSize(), sparse)

					m.ZeroGrad()
					m.ForwardBatch(xs, b)
					m.BackwardBatch(ts, b)

					ref.ZeroGrad()
					out := ref.OutputSize()
					for r := 0; r < b; r++ {
						ref.ForwardRef(xs[r*sh.inputs : (r+1)*sh.inputs])
						ref.BackwardRef(ts[r*out : (r+1)*out])
					}

					checkGradsEqual(t, fmt.Sprintf("b=%d", b), m, ref)
				}
			})
		}
	}
}

// TestScalarWrapperBitIdenticalToRef pins the B=1 wrapper itself: the
// public Forward/Backward must still produce exactly what the pre-batch
// scalar implementation (retained as the Ref pair) produced.
func TestScalarWrapperBitIdenticalToRef(t *testing.T) {
	m := NewMLP(334, 11, LayerSpec{Units: 175, Act: Tanh}, LayerSpec{Units: 16, Act: Linear})
	ref := NewMLP(334, 11, LayerSpec{Units: 175, Act: Tanh}, LayerSpec{Units: 16, Act: Linear})
	rng := xrand.New(3)
	for iter := 0; iter < 50; iter++ {
		x := randInputs(rng, 334)
		tg := maskTargets(rng, 1, 16, true)
		got, want := m.Forward(x), ref.ForwardRef(x)
		for o := range got {
			if !bitsEqual(got[o], want[o]) {
				t.Fatalf("iter %d out %d: wrapper %x ref %x", iter, o, math.Float64bits(got[o]), math.Float64bits(want[o]))
			}
		}
		m.Backward(tg)
		ref.BackwardRef(tg)
		m.AdamStep(1e-3, 1)
		ref.AdamStep(1e-3, 1)
	}
	var a, b bytes.Buffer
	if err := m.SaveFull(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveFull(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("full state diverges after interleaved train steps via wrapper vs reference")
	}
}

// TestSaveFullRoundTripsBatchedScratch: serialization must be independent
// of batch capacity — a network that has run large batches saves the same
// bytes as one that never did, and a loaded network works at any batch
// size.
func TestSaveFullRoundTripsBatchedScratch(t *testing.T) {
	m := NewMLP(13, 21, LayerSpec{Units: 9, Act: Tanh}, LayerSpec{Units: 4, Act: Linear})
	twin := NewMLP(13, 21, LayerSpec{Units: 9, Act: Tanh}, LayerSpec{Units: 4, Act: Linear})
	rng := xrand.New(8)
	xs := randInputs(rng, 32*13)
	ts := maskTargets(rng, 32, 4, true)
	m.ForwardBatch(xs, 32)
	m.BackwardBatch(ts, 32)
	m.AdamStep(1e-3, 32)

	// twin does the identical update through the scalar-equivalence path.
	twin.ZeroGrad()
	for r := 0; r < 32; r++ {
		twin.ForwardRef(xs[r*13 : (r+1)*13])
		twin.BackwardRef(ts[r*4 : (r+1)*4])
	}
	twin.AdamStep(1e-3, 32)

	var grown, fresh bytes.Buffer
	if err := m.SaveFull(&grown); err != nil {
		t.Fatal(err)
	}
	if err := twin.SaveFull(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(grown.Bytes(), fresh.Bytes()) {
		t.Fatal("batch-grown network serializes differently from never-batched twin")
	}

	loaded, err := LoadFull(bytes.NewReader(grown.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	x := xs[:13]
	want := m.Forward(x)
	got := loaded.ForwardBatch(x, 1)
	for o := range want {
		if !bitsEqual(got[o], want[o]) {
			t.Fatalf("loaded net output %d differs: %x vs %x", o, math.Float64bits(got[o]), math.Float64bits(want[o]))
		}
	}
}

// TestForwardBatchZeroAllocs / TestBackwardBatchZeroAllocs pin the
// batched hot path at 0 allocs/op once scratch is warm.
func TestForwardBatchZeroAllocs(t *testing.T) {
	m := NewMLP(334, 1, LayerSpec{Units: 175, Act: Tanh}, LayerSpec{Units: 16, Act: Linear})
	rng := xrand.New(2)
	xs := randInputs(rng, 32*334)
	m.EnsureBatch(32)
	for _, b := range []int{1, 8, 32} {
		allocs := testing.AllocsPerRun(100, func() { m.ForwardBatch(xs[:b*334], b) })
		if allocs != 0 {
			t.Errorf("ForwardBatch b=%d allocates %.1f objects/op, want 0", b, allocs)
		}
	}
}

func TestBackwardBatchZeroAllocs(t *testing.T) {
	m := NewMLP(334, 1, LayerSpec{Units: 175, Act: Tanh}, LayerSpec{Units: 16, Act: Linear})
	rng := xrand.New(2)
	xs := randInputs(rng, 32*334)
	ts := maskTargets(rng, 32, 16, true)
	for _, b := range []int{1, 8, 32} {
		m.ForwardBatch(xs[:b*334], b)
		allocs := testing.AllocsPerRun(100, func() {
			m.ForwardBatch(xs[:b*334], b)
			m.BackwardBatch(ts[:b*16], b)
		})
		if allocs != 0 {
			t.Errorf("Forward+BackwardBatch b=%d allocates %.1f objects/op, want 0", b, allocs)
		}
	}
}

func TestForwardBatchPanicsOnBadInput(t *testing.T) {
	m := NewMLP(4, 1, LayerSpec{Units: 2, Act: Linear})
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"short-input", func() { m.ForwardBatch(make([]float64, 7), 2) }},
		{"zero-batch", func() { m.ForwardBatch(nil, 0) }},
		{"backward-batch-mismatch", func() {
			m.ForwardBatch(make([]float64, 8), 2)
			m.BackwardBatch(make([]float64, 2), 1)
		}},
		{"backward-target-size", func() {
			m.ForwardBatch(make([]float64, 8), 2)
			m.BackwardBatch(make([]float64, 3), 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}

// checkGradsEqual fails t unless m and ref hold bit-identical weight and
// bias gradients.
func checkGradsEqual(t *testing.T, what string, m, ref *MLP) {
	t.Helper()
	for li := range m.layers {
		lm, lr := m.layers[li], ref.layers[li]
		for i := range lm.gw {
			if !bitsEqual(lm.gw[i], lr.gw[i]) {
				t.Fatalf("%s layer %d gw[%d]: batch %x ref %x",
					what, li, i, math.Float64bits(lm.gw[i]), math.Float64bits(lr.gw[i]))
			}
		}
		for o := range lm.gb {
			if !bitsEqual(lm.gb[o], lr.gb[o]) {
				t.Fatalf("%s layer %d gb[%d]: batch %x ref %x",
					what, li, o, math.Float64bits(lm.gb[o]), math.Float64bits(lr.gb[o]))
			}
		}
	}
}

// FuzzBatchEquivalence drives randomized shapes, batch sizes, inputs, and
// masks through both paths, checking bit-identity of outputs and
// gradients — the same oracle style as the chain-vs-map Belady fuzz.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(2))
	f.Add(uint64(99), uint8(16), uint8(9), uint8(7))
	f.Add(uint64(1234), uint8(40), uint8(33), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, inW, hidW, batch uint8) {
		inputs := int(inW%64) + 1
		hidden := int(hidW%48) + 1
		b := int(batch%24) + 1
		m := NewMLP(inputs, seed, LayerSpec{Units: hidden, Act: Tanh}, LayerSpec{Units: 4, Act: Linear})
		ref := NewMLP(inputs, seed, LayerSpec{Units: hidden, Act: Tanh}, LayerSpec{Units: 4, Act: Linear})
		rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
		xs := randInputs(rng, b*inputs)
		ts := maskTargets(rng, b, 4, rng.Uint64n(2) == 0)

		m.ZeroGrad()
		got := m.ForwardBatch(xs, b)
		m.BackwardBatch(ts, b)

		ref.ZeroGrad()
		for r := 0; r < b; r++ {
			want := ref.ForwardRef(xs[r*inputs : (r+1)*inputs])
			for o := 0; o < 4; o++ {
				if !bitsEqual(got[r*4+o], want[o]) {
					t.Fatalf("row %d out %d: %x vs %x", r, o, math.Float64bits(got[r*4+o]), math.Float64bits(want[o]))
				}
			}
			ref.BackwardRef(ts[r*4 : (r+1)*4])
		}
		for li := range m.layers {
			lm, lr := m.layers[li], ref.layers[li]
			for i := range lm.gw {
				if !bitsEqual(lm.gw[i], lr.gw[i]) {
					t.Fatalf("layer %d gw[%d]: %x vs %x", li, i, math.Float64bits(lm.gw[i]), math.Float64bits(lr.gw[i]))
				}
			}
			for o := range lm.gb {
				if !bitsEqual(lm.gb[o], lr.gb[o]) {
					t.Fatalf("layer %d gb[%d]: %x vs %x", li, o, math.Float64bits(lm.gb[o]), math.Float64bits(lr.gb[o]))
				}
			}
		}
	})
}

// TestForwardBatchPureGoPath re-runs the forward equivalence with the
// vector kernel disabled, so the portable loop-blocked path is exercised
// even on machines where AVX2 would normally take every b≥4 batch.
func TestForwardBatchPureGoPath(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernel on this machine; main tests already cover the Go path")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	for _, sh := range testShapes {
		m := NewMLP(sh.inputs, 42, sh.specs...)
		ref := NewMLP(sh.inputs, 42, sh.specs...)
		rng := xrand.New(99)
		for _, b := range testBatches {
			xs := randInputs(rng, b*sh.inputs)
			got := m.ForwardBatch(xs, b)
			out := m.OutputSize()
			for r := 0; r < b; r++ {
				want := ref.ForwardRef(xs[r*sh.inputs : (r+1)*sh.inputs])
				for o := 0; o < out; o++ {
					if !bitsEqual(got[r*out+o], want[o]) {
						t.Fatalf("%s b=%d row %d out %d: go-kernel %x ref %x",
							sh.name, b, r, o, math.Float64bits(got[r*out+o]), math.Float64bits(want[o]))
					}
				}
			}
		}
	}
}

// TestBackwardBatchPureGoPath re-runs the backward equivalence with the
// vector kernels disabled, so the portable gradient loops are checked
// against BackwardRef on AVX2 machines too.
func TestBackwardBatchPureGoPath(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernel on this machine; main tests already cover the Go path")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	for _, sh := range testShapes {
		for _, sparse := range []bool{false, true} {
			m := NewMLP(sh.inputs, 7, sh.specs...)
			ref := NewMLP(sh.inputs, 7, sh.specs...)
			rng := xrand.New(5)
			for _, b := range testBatches {
				xs := randInputs(rng, b*sh.inputs)
				ts := maskTargets(rng, b, m.OutputSize(), sparse)
				m.ZeroGrad()
				m.ForwardBatch(xs, b)
				m.BackwardBatch(ts, b)
				ref.ZeroGrad()
				out := ref.OutputSize()
				for r := 0; r < b; r++ {
					ref.ForwardRef(xs[r*sh.inputs : (r+1)*sh.inputs])
					ref.BackwardRef(ts[r*out : (r+1)*out])
				}
				checkGradsEqual(t, fmt.Sprintf("%s sparse=%v b=%d go-kernel", sh.name, sparse, b), m, ref)
			}
		}
	}
}

// TestAdamVectorMatchesScalar runs adam with the AVX2 kernel and with the
// scalar loop alone on identical state, over lengths around the 4-lane
// boundary and the paper net's first layer (175×334), for several steps:
// weights and both moments must agree bit for bit, and every gradient
// must be zero afterwards.
func TestAdamVectorMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernel on this machine")
	}
	type state struct{ w, g, mo, ve []float64 }
	rng := xrand.New(17)
	for _, n := range []int{1, 3, 4, 5, 58450} {
		var vec, sc state
		for _, p := range []*state{&vec, &sc} {
			p.w, p.g = make([]float64, n), make([]float64, n)
			p.mo, p.ve = make([]float64, n), make([]float64, n)
		}
		for i := 0; i < n; i++ {
			vec.w[i] = rng.Float64()*2 - 1
		}
		copy(sc.w, vec.w)
		for step := 1; step <= 3; step++ {
			for i := 0; i < n; i++ {
				g := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Uint64n(9))-6)
				if rng.Uint64n(8) == 0 {
					g = 0
				}
				vec.g[i], sc.g[i] = g, g
			}
			bc1 := 1 - math.Pow(adamBeta1, float64(step))
			bc2 := 1 - math.Pow(adamBeta2, float64(step))
			adam(vec.w, vec.g, vec.mo, vec.ve, 1e-3, 1.0/32, bc1, bc2)
			useAVX2 = false
			adam(sc.w, sc.g, sc.mo, sc.ve, 1e-3, 1.0/32, bc1, bc2)
			useAVX2 = true
			for i := 0; i < n; i++ {
				for _, c := range []struct {
					name      string
					got, want float64
				}{{"w", vec.w[i], sc.w[i]}, {"m", vec.mo[i], sc.mo[i]}, {"v", vec.ve[i], sc.ve[i]}} {
					if !bitsEqual(c.got, c.want) {
						t.Fatalf("n=%d step %d %s[%d]: avx2 %x scalar %x",
							n, step, c.name, i, math.Float64bits(c.got), math.Float64bits(c.want))
					}
				}
				if math.Float64bits(vec.g[i]) != 0 || math.Float64bits(sc.g[i]) != 0 {
					t.Fatalf("n=%d step %d g[%d] not cleared: avx2 %v scalar %v", n, step, i, vec.g[i], sc.g[i])
				}
			}
		}
	}
}

// TestAccumGradsMatchesSkippingReference pins the zero-delta argument in
// accumGrads: the kernels add d·y for every sample, where BackwardRef
// skips a sample whose delta is zero. Over random shapes with ±0 in both
// the deltas and the activations, and with starting gradients chosen so
// that some cells cancel to exactly zero before more ±0 terms arrive,
// every cell must match the skipping loop bit for bit, on both kernel
// paths.
func TestAccumGradsMatchesSkippingReference(t *testing.T) {
	rng := xrand.New(31)
	zeroish := func() float64 {
		switch rng.Uint64n(4) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return rng.Float64()*4 - 2
	}
	paths := []bool{false}
	if useAVX2 {
		paths = append(paths, true)
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	for trial := 0; trial < 200; trial++ {
		in, out, b := int(rng.Uint64n(12))+1, int(rng.Uint64n(20))+1, int(rng.Uint64n(10))+1
		y := make([]float64, b*in)
		for i := range y {
			y[i] = zeroish()
		}
		l := &layer{in: in, out: out}
		l.ensureTrain(b)
		for i := range l.d[:b*out] {
			l.d[i] = zeroish()
		}
		// Start each cell at the negated first live term, so it cancels to
		// +0 there, or at a random value.
		g0 := make([]float64, in*out)
		gb0 := make([]float64, out)
		for o := 0; o < out; o++ {
			for r := 0; r < b; r++ {
				if d := l.d[r*out+o]; d != 0 {
					gb0[o] = -d
					for i := 0; i < in; i++ {
						g0[i*out+o] = -(d * y[r*in+i])
					}
					break
				}
			}
			if rng.Uint64n(3) == 0 {
				gb0[o] = zeroish()
				for i := 0; i < in; i++ {
					g0[i*out+o] = zeroish()
				}
			}
		}
		for i, v := range g0 { // a stored gradient is never −0
			if v == 0 {
				g0[i] = 0
			}
		}
		for o, v := range gb0 {
			if v == 0 {
				gb0[o] = 0
			}
		}
		want, wantB := append([]float64(nil), g0...), append([]float64(nil), gb0...)
		for o := 0; o < out; o++ {
			for r := 0; r < b; r++ {
				d := l.d[r*out+o]
				if d == 0 {
					continue
				}
				for i := 0; i < in; i++ {
					want[i*out+o] += d * y[r*in+i]
				}
				wantB[o] += d
			}
		}
		rs := newRowScratch(b)
		for _, vec := range paths {
			useAVX2 = vec
			copy(l.gw, g0)
			copy(l.gb, gb0)
			accumGrads(&rs, l, y, b)
			for i := range want {
				if !bitsEqual(l.gw[i], want[i]) {
					t.Fatalf("trial %d avx2=%v gw[%d]: %x, skipping loop %x",
						trial, vec, i, math.Float64bits(l.gw[i]), math.Float64bits(want[i]))
				}
			}
			for o := range wantB {
				if !bitsEqual(l.gb[o], wantB[o]) {
					t.Fatalf("trial %d avx2=%v gb[%d]: %x, skipping loop %x",
						trial, vec, o, math.Float64bits(l.gb[o]), math.Float64bits(wantB[o]))
				}
			}
		}
	}
}
