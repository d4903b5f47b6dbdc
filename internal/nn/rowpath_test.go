package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// The 1-row path (gemm's rows outside 4-row groups) multiplies only the
// nonzero A values of a row. These tests pin it bit for bit against the
// scalar reference and the dense pure-Go kernel on inputs full of ±0: an
// all-zero row, a single nonzero, −0 biases, the strip widths around 8,
// 16 and 32 columns, batches with 1-row leftovers, and the leftover input
// rows of a 334-input weight gradient.

// rowPathWidths are the layer widths: below, at and past the 8-column
// tile, the 16-column half strip and the 32-column strip, the `bench`
// hidden width and the paper's.
var rowPathWidths = []int{1, 7, 8, 15, 16, 17, 24, 31, 32, 33, 175}

// kernelPaths lists the gemm dispatches this machine can run: the AVX2
// kernels where present, and the Go tile. Tests call it before they set
// useAVX2.
func kernelPaths() []bool {
	if useAVX2 {
		return []bool{true, false}
	}
	return []bool{false}
}

// negZero is −0.
var negZero = math.Copysign(0, -1)

// sparseRows returns inputs of width n for the 1-row path: all +0, all −0,
// a single nonzero (first, middle and last entry), a mix in which about
// half the entries are ±0, and a row with no zero at all.
func sparseRows(rng *xrand.Rand, n int) [][]float64 {
	var rows [][]float64
	allZero, allNeg := make([]float64, n), make([]float64, n)
	for i := range allNeg {
		allNeg[i] = negZero
	}
	rows = append(rows, allZero, allNeg)
	for _, at := range []int{0, n / 2, n - 1} {
		x := make([]float64, n)
		x[at] = rng.Float64()*4 - 2
		rows = append(rows, x)
	}
	rows = append(rows, zeroishInputs(rng, n), randInputs(rng, n))
	return rows
}

// zeroishInputs returns n values, a quarter of them +0, a quarter −0 and
// the rest uniform in [−2, 2).
func zeroishInputs(rng *xrand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Uint64n(4) {
		case 0:
		case 1:
			xs[i] = negZero
		default:
			xs[i] = rng.Float64()*4 - 2
		}
	}
	return xs
}

// setBiases gives both networks the same biases: −0 in every third
// column of every layer (with negZeros), the rest small random values.
func setBiases(rng *xrand.Rand, negZeros bool, nets ...*MLP) {
	for li, l := range nets[0].layers {
		for o := range l.b {
			v := (rng.Float64()*2 - 1) / 8
			if negZeros && o%3 == 0 {
				v = negZero
			}
			for _, m := range nets {
				m.layers[li].b[o] = v
			}
		}
	}
}

// refPreacts runs ForwardRef on x and returns a copy of every layer's
// pre-activations, first layer first.
func refPreacts(ref *MLP, x []float64) [][]float64 {
	ref.ForwardRef(x)
	zs := make([][]float64, len(ref.layers))
	for li, l := range ref.layers {
		zs[li] = append([]float64(nil), l.z[:l.out]...)
	}
	return zs
}

// checkPreacts fails t unless every layer's pre-activations of m's last
// forward pass match want (one refPreacts result per batch row) bit for
// bit. Hidden layers are checked too: a −0 that tanh passes on as −0 is
// lost again in the next layer's sum.
func checkPreacts(t *testing.T, what string, m *MLP, want [][][]float64) {
	t.Helper()
	for r, zs := range want {
		for li, l := range m.layers {
			for o, w := range zs[li] {
				if got := l.z[r*l.out+o]; !bitsEqual(got, w) {
					t.Fatalf("%s row %d layer %d out %d: %x, want %x",
						what, r, li, o, math.Float64bits(got), math.Float64bits(w))
				}
			}
		}
	}
}

// TestRowPathForwardMatchesRef runs the batch-of-one Forward over sparse
// inputs at every width, with and without −0 biases, on each kernel path.
// With an all-zero input and a −0 bias, the reference adds +0 and −0
// products to the −0 start, so only a row that keeps every term gets the
// sign right.
func TestRowPathForwardMatchesRef(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	paths := kernelPaths()
	const in = 334
	rng := xrand.New(41)
	for _, w := range rowPathWidths {
		for _, negZeros := range []bool{false, true} {
			specs := []LayerSpec{{Units: w, Act: Tanh}, {Units: w, Act: Linear}}
			m, ref := NewMLP(in, 3, specs...), NewMLP(in, 3, specs...)
			setBiases(rng, negZeros, m, ref)
			for i, x := range sparseRows(rng, in) {
				want := [][][]float64{refPreacts(ref, x)}
				for _, vec := range paths {
					useAVX2 = vec
					m.Forward(x)
					checkPreacts(t, fmt.Sprintf("width %d negzero=%v input %d avx2=%v", w, negZeros, i, vec), m, want)
				}
			}
		}
	}
}

// TestRowPathNegZeroBiasKeepsTerms pins the case the −0 check exists
// for: all-zero input, −0 bias, and weights of both signs, so the
// reference's sum ends at +0 where skipping every term would leave −0.
func TestRowPathNegZeroBiasKeepsTerms(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	paths := kernelPaths()
	m := NewMLP(5, 9, LayerSpec{Units: 33, Act: Linear})
	l := m.layers[0]
	for i := range l.b {
		l.b[i] = negZero
	}
	for k := 0; k < l.in; k++ {
		for o := 0; o < l.out; o++ {
			l.w[k*l.out+o] = float64(1 - 2*((k+o)%2)) // ±1
		}
	}
	for _, x := range [][]float64{make([]float64, 5), {negZero, negZero, negZero, negZero, negZero}} {
		want := refPreacts(m, x)
		for _, vec := range paths {
			useAVX2 = vec
			m.Forward(x)
			checkPreacts(t, fmt.Sprintf("x[0] %v avx2=%v", x[0], vec), m, [][][]float64{want})
		}
		for o, v := range want[0] {
			if math.Signbit(v) {
				t.Fatalf("x[0] %v out %d: reference sum is −0, want +0 (a +0 product must land)", x[0], o)
			}
		}
	}
}

// TestRowPathForwardBatchLeftovers runs ForwardBatch at B=5–7, one full
// 4-row group plus 1–3 rows through the 1-row path, with all-zero and
// single-nonzero rows among them.
func TestRowPathForwardBatchLeftovers(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	paths := kernelPaths()
	const in = 334
	rng := xrand.New(43)
	for _, w := range rowPathWidths {
		specs := []LayerSpec{{Units: w, Act: Tanh}, {Units: 16, Act: Linear}}
		m, ref := NewMLP(in, 5, specs...), NewMLP(in, 5, specs...)
		setBiases(rng, true, m, ref)
		rows := sparseRows(rng, in)
		for b := 5; b <= 7; b++ {
			var xs []float64
			var want [][][]float64
			for r := 0; r < b; r++ {
				x := rows[(r+3)%len(rows)] // rows 4.. start at the all-zero one
				xs = append(xs, x...)
				want = append(want, refPreacts(ref, x))
			}
			for _, vec := range paths {
				useAVX2 = vec
				m.ForwardBatch(xs, b)
				checkPreacts(t, fmt.Sprintf("width %d b=%d avx2=%v", w, b, vec), m, want)
			}
		}
	}
}

// TestRowPathWeightGradient accumulates a 334-input layer's weight
// gradient, whose inputs 332 and 333 are the rows past the last 4-row
// group, over sparse batches: input 332 is zero in every sample, and 333
// nonzero in one sample only. The gradients must match BackwardRef and the
// Go path bit for bit.
func TestRowPathWeightGradient(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	paths := kernelPaths()
	const in = 334
	rng := xrand.New(47)
	for _, hidden := range []int{24, 175} {
		specs := []LayerSpec{{Units: hidden, Act: Tanh}, {Units: 16, Act: Linear}}
		for _, b := range []int{1, 5, 7, 32} {
			xs := zeroishInputs(rng, b*in)
			for r := 0; r < b; r++ {
				xs[r*in+332] = 0
				xs[r*in+333] = 0
			}
			xs[(b/2)*in+333] = 1.5
			ts := maskTargets(rng, b, 16, true)

			ref := NewMLP(in, 13, specs...)
			for r := 0; r < b; r++ {
				ref.ForwardRef(xs[r*in : (r+1)*in])
				ref.BackwardRef(ts[r*16 : (r+1)*16])
			}
			for _, vec := range paths {
				useAVX2 = vec
				m := NewMLP(in, 13, specs...)
				m.ForwardBatch(xs, b)
				m.BackwardBatch(ts, b)
				checkGradsEqual(t, fmt.Sprintf("hidden %d b=%d avx2=%v", hidden, b, vec), m, ref)
			}
		}
	}
}
