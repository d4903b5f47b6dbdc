// batch.go implements the batched matrix-kernel hot path: ForwardBatch
// evaluates B inputs as one matrix product per layer and BackwardBatch
// accumulates a whole minibatch's weight gradients as one more. Both are
// bit-identical to the retained scalar reference paths
// (ForwardRef/BackwardRef): every accumulator — an output pre-activation,
// a weight gradient, a propagated delta — is a single chain that adds its
// terms in exactly the reference order (bias first, then ascending input
// index; gradients in ascending sample order), with each product rounded
// on its own (never a fused multiply-add). The kernels gain their speed
// from SIMD lanes and register blocking (independent accumulator chains
// hide FP-add latency instead of serializing on it), not from
// re-association, so batched training produces byte-identical weights to
// per-sample training for a fixed seed.
//
// Weights are stored input-major (w[k*out+o]), so the weights from one
// input to consecutive outputs are contiguous: a vector lane is one
// output's chain, and one kernel family serves every product. gemm
// computes C = I + A·B with strided A; the forward pass is z = b + x·w,
// and the weight gradient gw += yᵀ·d reads y's columns in place as the A
// rows, with the sample index as k. With AVX2, groups of 4 rows run
// through a 4-row × 8-column tile. Every other row — the agent's
// batch-of-one inference, and the rows%4 rows left over from the groups —
// takes the 1-row path: the row's nonzero A values and the byte offsets
// of their B rows are compacted into the network's scratch, and a 1-row ×
// 32-column strip gathers only those B rows. The agent's state is mostly
// one-hot and binary fields, so more than half of its inputs are exact
// zeros that this path never multiplies. The tile and the strip mask their
// starting-value loads and their stores to the live columns of a ragged
// right edge; they load whole B rows, for which weights and deltas carry
// spare capacity. Without AVX2 the same products run, dense, through a
// 1-row × 4-column tile in Go.
package nn

import (
	"fmt"
	"math"
)

// EnsureBatch grows every layer's forward scratch to hold b rows (the
// delta scratch of a network that trains follows on its next
// BackwardBatch), so ForwardBatch/BackwardBatch calls up to that batch
// size allocate nothing after the first. Growth is monotonic; weights,
// gradients, and optimizer state are untouched (and the serialized
// formats never include scratch, so checkpoints are independent of batch
// capacity).
func (m *MLP) EnsureBatch(b int) {
	if b <= m.batchCap {
		return
	}
	for _, l := range m.layers {
		l.z = make([]float64, b*l.out)
		l.y = make([]float64, b*l.out)
	}
	m.batchCap = b
	m.row = newRowScratch(max(m.maxIn(), b))
}

// rowScratch holds one A row compacted for the 1-row path: its nonzero
// values and the byte offsets of the B rows they multiply. An MLP owns
// one, sized for its widest layer input and its batch capacity (the k
// extent of the forward and of the weight gradient).
type rowScratch struct {
	x   []float64
	off []int64
}

func newRowScratch(n int) rowScratch {
	return rowScratch{x: make([]float64, n), off: make([]int64, n)}
}

// compact stores the A row's values a[k*ak] for k < kn — the nonzero
// ones, or all of them when keepAll is set — with the byte offsets k·bk·8
// of their B rows, in ascending k, and returns how many it stored.
func (s *rowScratch) compact(a []float64, kn, ak, bk int, keepAll bool) int {
	x, off := s.x[:kn], s.off[:kn]
	var keep uint64
	if keepAll {
		keep = 1
	}
	n := 0
	for k := range x {
		v := a[k*ak]
		x[n], off[n] = v, int64(k*bk*8)
		// n advances unless v is ±0 and keep is 0, without a branch: the
		// zeros of the agent's state follow no pattern a predictor learns.
		u := math.Float64bits(v) << 1
		n += int((u|-u)>>63 | keep)
	}
	return n
}

// hasNegZero reports whether v holds a −0.
func hasNegZero(v []float64) bool {
	for _, x := range v {
		if math.Float64bits(x) == 1<<63 {
			return true
		}
	}
	return false
}

// ForwardBatch runs inference on b row-major inputs (len(xs) must be
// b×InputSize) and returns the b×OutputSize row-major outputs. The
// returned slice is owned by the network and valid until the next forward
// pass. Row r of the result is bit-identical to ForwardRef on row r of
// the input.
func (m *MLP) ForwardBatch(xs []float64, b int) []float64 {
	in := m.layers[0].in
	if b < 1 {
		panic("nn: ForwardBatch needs a positive batch size")
	}
	if len(xs) != b*in {
		panic(fmt.Sprintf("nn: batch input size %d, want %d×%d", len(xs), b, in))
	}
	m.EnsureBatch(b)
	m.input = xs
	m.batchCur = b
	cur := xs
	for _, l := range m.layers {
		z := l.z[:b*l.out]
		gemm(&m.row, z, l.b, cur, l.w, b, l.out, l.in, l.out, 0, l.in, 1, l.out)
		applyAct(l.act, l.y[:b*l.out], z)
		cur = l.y[:b*l.out]
	}
	return cur
}

// applyAct writes y = act(z) element-wise, with the switch hoisted out of
// the loop. Values match Activation.apply exactly.
func applyAct(act Activation, y, z []float64) {
	switch act {
	case Tanh:
		for i, v := range z {
			y[i] = math.Tanh(v)
		}
	case ReLU:
		for i, v := range z {
			if v < 0 {
				y[i] = 0
			} else {
				y[i] = v
			}
		}
	default:
		copy(y, z)
	}
}

// laneMask holds 32 all-ones lane masks followed by 32 zero masks:
// &laneMask[32-n] is a mask whose first n lanes are set.
var laneMask = [64]int64{
	-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
	-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
}

// bSlack is the spare capacity past its length that every B operand of
// gemm — a weight matrix or a delta matrix — carries (newLayer and
// ensureTrain allocate them so). The kernels load whole B rows, 8
// columns in the tile and 32 in the strip, and discard the lanes past n,
// so the last row of a ragged strip reads up to 31 elements past its end.
const bSlack = 31

// gemm computes, for r < rows and o < n,
//
//	c[r*ldc+o] = init[r*ldi+o] + Σ_{k<kn} a[r*ar+k*ak]·b[k*bk+o]
//
// with each accumulator adding its terms in ascending k. init may alias c
// (ldi = ldc: accumulate into c) or be one shared row (ldi = 0: a bias).
// kn ≥ 1, and s holds at least kn entries. Every element of B must be
// finite: the 1-row path skips the terms of a zero A value, which leaves
// an accumulator unchanged only because x·w = ±0 for x = ±0 and finite w.
// Adding ±0 leaves every value but −0 unchanged, and an accumulator is −0
// only while its start is −0 and every term so far was −0, so a row whose
// init holds a −0 keeps all its terms. The AVX2 and Go kernels give
// bit-identical results; the dispatch is a speed choice only, and the
// equivalence tests run both.
func gemm(s *rowScratch, c, init, a, b []float64, rows, n, kn, ldc, ldi, ar, ak, bk int) {
	// Bounds: the last element each operand's strides reach, and B's
	// slack.
	_ = c[(rows-1)*ldc+n-1]
	_ = init[(rows-1)*ldi+n-1]
	_ = a[(rows-1)*ar+(kn-1)*ak]
	_ = b[:(kn-1)*bk+n+bSlack]
	if !useAVX2 {
		gemmGo(c, init, a, b, rows, n, kn, ldc, ldi, ar, ak, bk)
		return
	}
	// Column blocks outermost: a block of B (kn rows of 8 columns) stays
	// in L1 while every 4-row group of A sweeps it.
	for o := 0; o < n; o += 8 {
		mask := &laneMask[32-min(8, n-o)]
		for r := 0; r+4 <= rows; r += 4 {
			gemm4x8avx2(&c[r*ldc+o], &init[r*ldi+o], &a[r*ar], &b[o], mask,
				int64(kn), int64(ldc), int64(ldi), int64(ar), int64(ak), int64(bk))
		}
	}
	// The 1-row path: compact the row once, then gather its B rows strip
	// by strip.
	for r := rows &^ 3; r < rows; r++ {
		crow, irow := c[r*ldc:r*ldc+n], init[r*ldi:r*ldi+n]
		nz := int64(s.compact(a[r*ar:], kn, ak, bk, hasNegZero(irow)))
		for o := 0; o < n; o += 32 {
			gemm1x32gather(&crow[o], &irow[o], &b[o], &s.x[0], &s.off[0], nz, &laneMask[32-min(32, n-o)])
		}
	}
}

// gemmGo is gemm's portable kernel: one row at a time, four columns per
// tile on four independent chains, and the last n%4 columns one chain
// each.
func gemmGo(c, init, a, b []float64, rows, n, kn, ldc, ldi, ar, ak, bk int) {
	for r := 0; r < rows; r++ {
		arow := a[r*ar:]
		crow, irow := c[r*ldc:r*ldc+n], init[r*ldi:r*ldi+n]
		o := 0
		for ; o+4 <= n; o += 4 {
			a0, a1, a2, a3 := irow[o], irow[o+1], irow[o+2], irow[o+3]
			for k := 0; k < kn; k++ {
				x := arow[k*ak]
				brow := b[k*bk+o : k*bk+o+4]
				a0 += x * brow[0]
				a1 += x * brow[1]
				a2 += x * brow[2]
				a3 += x * brow[3]
			}
			crow[o], crow[o+1], crow[o+2], crow[o+3] = a0, a1, a2, a3
		}
		for ; o < n; o++ {
			acc := irow[o]
			for k := 0; k < kn; k++ {
				acc += arow[k*ak] * b[k*bk+o]
			}
			crow[o] = acc
		}
	}
}

// BackwardBatch accumulates gradients of 0.5·Σ(output − target)² for
// every row of the most recent ForwardBatch, in one pass. targets is
// b×OutputSize row-major; NaN components are masked out exactly as in the
// scalar path. b must match the batch size of the last forward pass. The
// accumulated gradients are bit-identical to calling the scalar reference
// (forward+backward) on each row in order: per (o,i) weight-gradient cell
// the sample contributions are added in ascending sample order, exactly
// as BackwardRef does.
func (m *MLP) BackwardBatch(targets []float64, b int) {
	if b != m.batchCur {
		panic(fmt.Sprintf("nn: BackwardBatch batch size %d, last forward pass had %d", b, m.batchCur))
	}
	last := m.layers[len(m.layers)-1]
	if len(targets) != b*last.out {
		panic(fmt.Sprintf("nn: batch target size %d, want %d×%d", len(targets), b, last.out))
	}
	m.ensureTrain()
	outputDeltas(last, targets, b)
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		prevY := m.input
		if li > 0 {
			prevY = m.layers[li-1].y[:b*l.in]
		}
		accumGrads(&m.row, l, prevY, b)
		if li > 0 {
			propagateDeltas(l, m.layers[li-1], b)
		}
	}
}

// outputDeltas fills the last layer's delta rows from the masked targets:
// d = (y − t)·act′(z,y), or 0 where t is NaN. Delta buffers are reused
// across calls, so masked components are written to zero, not skipped.
func outputDeltas(l *layer, targets []float64, b int) {
	n := b * l.out
	d, y, z := l.d[:n], l.y[:n], l.z[:n]
	for i, t := range targets {
		if t != t { // NaN mask
			d[i] = 0
			continue
		}
		d[i] = (y[i] - t) * l.act.derivative(z[i], y[i])
	}
}

// one is the A operand of the bias gradient: gb[o] += Σ_r 1·d[r][o].
var one = [1]float64{1}

// accumGrads adds the batch's weight and bias gradient contributions,
// gw[i][o] += Σ_r prevY[r][i]·d[r][o] and gb[o] += Σ_r d[r][o], with r
// strictly ascending per cell, as two gemm calls: the rows of the first
// are the inputs i, read in place as columns of prevY. BackwardRef skips
// a sample whose delta is zero; here it adds d·y = ±0 instead, and the
// 1-row path (the in%4 inputs past the last 4-row group, and the bias
// row) skips the samples whose y is zero. Both give the same value: a
// gradient cell is never −0 (it starts at +0, and a rounded sum is −0
// only when both addends are), so adding ±0 leaves it unchanged, and y
// and d are finite, so d·y is never NaN. 1·d is exactly d.
func accumGrads(s *rowScratch, l *layer, prevY []float64, b int) {
	in, out := l.in, l.out
	gemm(s, l.gw, l.gw, prevY, l.d, in, out, b, out, out, 1, in, out)
	gemm(s, l.gb, l.gb, one[:], l.d, 1, out, b, 0, 0, 0, 0, out)
}

// propagateDeltas computes the previous layer's batch deltas:
// prev.d[r][i] = (Σ_o d[r][o]·w[i][o])·act′, with the o-sum accumulated
// in ascending order and zero-delta outputs skipped, matching the scalar
// reference bit for bit. The sum runs as one strided axpy per live output
// — the same additions in the same per-element order.
func propagateDeltas(l, prev *layer, b int) {
	in, out := l.in, l.out
	for r := 0; r < b; r++ {
		drow := l.d[r*out : (r+1)*out]
		nd := prev.d[r*in : (r+1)*in]
		for i := range nd {
			nd[i] = 0
		}
		for o, dv := range drow {
			if dv == 0 {
				continue
			}
			for i := range nd {
				nd[i] += dv * l.w[i*out+o]
			}
		}
		zrow := prev.z[r*in : (r+1)*in]
		yrow := prev.y[r*in : (r+1)*in]
		switch prev.act {
		case Tanh:
			for i := range nd {
				nd[i] *= 1 - yrow[i]*yrow[i]
			}
		case ReLU:
			for i := range nd {
				if zrow[i] < 0 {
					nd[i] = 0
				}
			}
		}
	}
}
