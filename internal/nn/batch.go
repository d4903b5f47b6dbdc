// batch.go implements the batched matrix-kernel hot path: ForwardBatch
// evaluates B inputs as one loop-blocked matrix–matrix multiply per layer
// and BackwardBatch accumulates a whole minibatch's gradients in register-
// tiled kernels. Both are bit-identical to the retained scalar reference
// paths (ForwardRef/BackwardRef): every accumulator — an output
// pre-activation, a weight gradient, a propagated delta — is a single
// chain that adds its terms in exactly the reference order (bias first,
// then ascending input index; gradients in ascending sample order). The
// kernels gain their speed from register blocking (independent
// accumulator chains hide FP-add latency instead of serializing on it),
// SIMD lanes that each carry one such chain, and cache blocking (a weight
// tile is reused across every row of the batch while it is hot; a
// gradient row stays in L1 while every sample adds into it), not from
// re-association, so batched training produces byte-identical weights to
// per-sample training for a fixed seed.
//
// Forward kernels: groups of 4 rows run through a 4-row × 4-output tile
// (mm44avx2 with AVX2, mm44 without); the rows left over — all of them in
// the agent's batch-of-one inference — run through the 1-row ×
// rowOuts-output tile mm1x. Gradient kernels: 4 live samples add into a
// gradient row through accum4 (AVX2 lanes over the input index);
// masked-out samples are skipped, and a group with some masked samples
// runs its live ones as ordered axpys.
package nn

import (
	"fmt"
	"math"
)

// Kernel blocking parameters. rowTile×colTile accumulators live in
// registers in the inner loops; kBand keeps the active x/w slices inside
// L1 while a tile pass runs. Changing these never changes results — only
// how the same additions are scheduled.
const (
	rowTile = 4   // batch rows per register tile
	colTile = 4   // outputs per register tile
	kBand   = 512 // input elements per cache band
)

// EnsureBatch grows every layer's forward/backward scratch to hold b
// rows, so subsequent ForwardBatch/BackwardBatch calls up to that batch
// size allocate nothing. Growth is monotonic; weights, gradients, and
// optimizer state are untouched (and the serialized formats never include
// scratch, so checkpoints are independent of batch capacity).
func (m *MLP) EnsureBatch(b int) {
	if b <= m.batchCap {
		return
	}
	maxIn := 0
	for _, l := range m.layers {
		l.z = make([]float64, b*l.out)
		l.y = make([]float64, b*l.out)
		l.d = make([]float64, b*l.out)
		if l.in > maxIn {
			maxIn = l.in
		}
	}
	if len(m.pack) < 4*maxIn {
		m.pack = make([]float64, 4*maxIn)
	}
	m.batchCap = b
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
		m.matmulBias(z, cur, l.w, l.b, b, l.in, l.out)
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

// matmulBias computes z[r*out+o] = bias[o] + Σ_k x[r*in+k]·w[o*in+k] for
// r < b, o < out. Batches of ≥4 rows go through the AVX2 driver when the
// CPU has it; everything else (batches of 1–3 rows, and non-amd64 builds)
// uses the loop-blocked pure-Go kernel. Both drivers send leftover rows
// to the same 1-row kernel, and all paths produce bit-identical results —
// the dispatch is a speed choice only, and the equivalence tests run
// every path.
func (m *MLP) matmulBias(z, x, w, bias []float64, b, in, out int) {
	if useAVX2 && b >= 4 && out >= 4 {
		matmulVec(z, x, w, bias, b, in, out, m.pack)
		return
	}
	matmulGo(z, x, w, bias, b, in, out)
}

// matmulVec is the AVX2 driver: for each group of 4 batch rows it packs
// the rows k-major (so one 32-byte load fetches the same input element of
// all 4 samples) and sweeps the weight matrix in 4-output tiles via
// mm44avx2. Everything outside those tiles — the trailing out%4 outputs
// of each group, and every output of the trailing b%4 rows — goes
// through the 1-row kernel.
func matmulVec(z, x, w, bias []float64, b, in, out int, pack []float64) {
	bFull, outFull := b&^3, out&^3
	for r0 := 0; r0 < bFull; r0 += 4 {
		x0 := x[r0*in : (r0+1)*in]
		x1 := x[(r0+1)*in : (r0+2)*in]
		x2 := x[(r0+2)*in : (r0+3)*in]
		x3 := x[(r0+3)*in : (r0+4)*in]
		xg := pack[: 4*in : 4*in]
		for k := 0; k < in; k++ {
			xg[k*4] = x0[k]
			xg[k*4+1] = x1[k]
			xg[k*4+2] = x2[k]
			xg[k*4+3] = x3[k]
		}
		for o0 := 0; o0 < outFull; o0 += 4 {
			mm44avx2(&z[r0*out+o0], &xg[0], &w[o0*in], &bias[o0], int64(in), int64(out))
		}
	}
	mmEdges(z, x, w, bias, b, 0, in, in, out, true)
}

// matmulGo is the portable kernel: an i/j/k loop-blocked matrix multiply.
// Each (r,o) accumulator adds its terms in strictly ascending k — the
// same order the scalar reference uses — so the result is bit-identical;
// k-bands park partial sums in z between passes (exact: float64
// store/load round-trips are lossless). Full 4-row × 4-output tiles run
// through mm44; the rest, as in matmulVec, through the 1-row kernel.
func matmulGo(z, x, w, bias []float64, b, in, out int) {
	bFull, outFull := b&^(rowTile-1), out&^(colTile-1)
	for k0 := 0; k0 < in; k0 += kBand {
		kn := min(kBand, in-k0)
		first := k0 == 0
		for o0 := 0; o0 < outFull; o0 += colTile {
			for r0 := 0; r0 < bFull; r0 += rowTile {
				mm44(z, x, w, bias, r0, o0, k0, kn, in, out, first)
			}
		}
		mmEdges(z, x, w, bias, b, k0, kn, in, out, first)
	}
}

// mmEdges runs the parts of a k-band the rowTile×colTile tiles leave out
// through the 1-row kernel: the trailing out%colTile outputs of the rows
// in full row groups, and every output of the trailing b%rowTile rows.
func mmEdges(z, x, w, bias []float64, b, k0, kn, in, out int, first bool) {
	bFull, outFull := b&^(rowTile-1), out&^(colTile-1)
	for r := 0; r < b; r++ {
		o0 := outFull
		if r >= bFull {
			o0 = 0
		}
		xr := x[r*in+k0:][:kn]
		zr := z[r*out : (r+1)*out]
		for ; o0 < out; o0 += rowOuts {
			mm1x(zr[o0:], xr, w[o0*in+k0:], bias[o0:], in, min(rowOuts, out-o0), first)
		}
	}
}

// mm44 is the unrolled inner kernel: a 4×4 register tile of accumulators
// (4 batch rows × 4 outputs) swept along one k-band. The 16 independent
// chains turn the latency-bound scalar dot product into a
// throughput-bound kernel without touching summation order.
func mm44(z, x, w, bias []float64, r0, o0, k0, kn, in, out int, first bool) {
	x0 := x[r0*in+k0:][:kn]
	x1 := x[(r0+1)*in+k0:][:kn]
	x2 := x[(r0+2)*in+k0:][:kn]
	x3 := x[(r0+3)*in+k0:][:kn]
	w0 := w[o0*in+k0:][:kn]
	w1 := w[(o0+1)*in+k0:][:kn]
	w2 := w[(o0+2)*in+k0:][:kn]
	w3 := w[(o0+3)*in+k0:][:kn]

	var a00, a01, a02, a03 float64
	var a10, a11, a12, a13 float64
	var a20, a21, a22, a23 float64
	var a30, a31, a32, a33 float64
	if first {
		b0, b1, b2, b3 := bias[o0], bias[o0+1], bias[o0+2], bias[o0+3]
		a00, a01, a02, a03 = b0, b1, b2, b3
		a10, a11, a12, a13 = b0, b1, b2, b3
		a20, a21, a22, a23 = b0, b1, b2, b3
		a30, a31, a32, a33 = b0, b1, b2, b3
	} else {
		z0 := z[r0*out+o0:]
		z1 := z[(r0+1)*out+o0:]
		z2 := z[(r0+2)*out+o0:]
		z3 := z[(r0+3)*out+o0:]
		a00, a01, a02, a03 = z0[0], z0[1], z0[2], z0[3]
		a10, a11, a12, a13 = z1[0], z1[1], z1[2], z1[3]
		a20, a21, a22, a23 = z2[0], z2[1], z2[2], z2[3]
		a30, a31, a32, a33 = z3[0], z3[1], z3[2], z3[3]
	}
	for k := 0; k < kn; k++ {
		wv0, wv1, wv2, wv3 := w0[k], w1[k], w2[k], w3[k]
		xv := x0[k]
		a00 += xv * wv0
		a01 += xv * wv1
		a02 += xv * wv2
		a03 += xv * wv3
		xv = x1[k]
		a10 += xv * wv0
		a11 += xv * wv1
		a12 += xv * wv2
		a13 += xv * wv3
		xv = x2[k]
		a20 += xv * wv0
		a21 += xv * wv1
		a22 += xv * wv2
		a23 += xv * wv3
		xv = x3[k]
		a30 += xv * wv0
		a31 += xv * wv1
		a32 += xv * wv2
		a33 += xv * wv3
	}
	z0 := z[r0*out+o0:]
	z1 := z[(r0+1)*out+o0:]
	z2 := z[(r0+2)*out+o0:]
	z3 := z[(r0+3)*out+o0:]
	z0[0], z0[1], z0[2], z0[3] = a00, a01, a02, a03
	z1[0], z1[1], z1[2], z1[3] = a10, a11, a12, a13
	z2[0], z2[1], z2[2], z2[3] = a20, a21, a22, a23
	z3[0], z3[1], z3[2], z3[3] = a30, a31, a32, a33
}

// rowOuts is the width of the 1-row kernel mm1x.
const rowOuts = 4

// mm1x is the 1-row kernel: rowOuts independent accumulator chains (one
// per output) share each input element, so the batch-of-one forward pass
// is bound by add throughput instead of one serial add chain per output.
// It computes the first on ≤ rowOuts outputs of z; output c reads its
// weights at w[c*in : c*in+len(x)]. Each chain starts at its bias (or its
// parked partial sum) and adds terms in ascending k. When on < rowOuts
// the spare chains repeat output on-1, whose equal value they store
// again.
func mm1x(z, x, w, bias []float64, in, on int, first bool) {
	n := len(x)
	c1, c2, c3 := min(1, on-1), min(2, on-1), min(3, on-1)
	w0 := w[:n]
	w1 := w[c1*in:][:n]
	w2 := w[c2*in:][:n]
	w3 := w[c3*in:][:n]
	src := z
	if first {
		src = bias
	}
	a0, a1, a2, a3 := src[0], src[c1], src[c2], src[c3]
	for k, xv := range x {
		a0 += xv * w0[k]
		a1 += xv * w1[k]
		a2 += xv * w2[k]
		a3 += xv * w3[k]
	}
	z[0], z[c1], z[c2], z[c3] = a0, a1, a2, a3
}

// BackwardBatch accumulates gradients of 0.5·Σ(output − target)² for
// every row of the most recent ForwardBatch, in one pass. targets is
// b×OutputSize row-major; NaN components are masked out exactly as in the
// scalar path. b must match the batch size of the last forward pass. The
// accumulated gradients are bit-identical to calling the scalar reference
// (forward+backward) on each row in order: per (o,i) weight-gradient cell
// the sample contributions are added in ascending sample order, and
// zero-delta samples are skipped, both exactly as BackwardRef does.
func (m *MLP) BackwardBatch(targets []float64, b int) {
	if b != m.batchCur {
		panic(fmt.Sprintf("nn: BackwardBatch batch size %d, last forward pass had %d", b, m.batchCur))
	}
	last := m.layers[len(m.layers)-1]
	if len(targets) != b*last.out {
		panic(fmt.Sprintf("nn: batch target size %d, want %d×%d", len(targets), b, last.out))
	}
	outputDeltas(last, targets, b)
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		var prevY []float64
		var prevW int
		if li == 0 {
			prevY, prevW = m.input, l.in
		} else {
			prev := m.layers[li-1]
			prevY, prevW = prev.y[:b*prev.out], prev.out
		}
		accumGrads(l, prevY, prevW, b)
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

// accumGrads adds the batch's weight/bias gradient contributions:
// gw[o][i] += Σ_r d[r][o]·prevY[r][i] and gb[o] += Σ_r d[r][o], with r
// strictly ascending per cell and zero-delta (r,o) pairs skipped — the
// scalar reference semantics. Outputs are the outer loop, so one gw row
// stays in L1 while every sample adds into it. Samples go in groups of
// four: a group whose deltas are all live (the dense hidden-layer case)
// runs through accum4; otherwise its live samples run as ordered axpys
// (the sparse masked-output case, where at most one action per sample
// carries error).
func accumGrads(l *layer, prevY []float64, in, b int) {
	out := l.out
	d := l.d
	bFull := b &^ (rowTile - 1)
	for o := 0; o < out; o++ {
		grow := l.gw[o*in : o*in+in]
		gb := l.gb[o]
		for r0 := 0; r0 < bFull; r0 += rowTile {
			d0 := d[r0*out+o]
			d1 := d[(r0+1)*out+o]
			d2 := d[(r0+2)*out+o]
			d3 := d[(r0+3)*out+o]
			if d0 == 0 && d1 == 0 && d2 == 0 && d3 == 0 {
				continue
			}
			y0 := prevY[r0*in : r0*in+in]
			y1 := prevY[(r0+1)*in : (r0+1)*in+in]
			y2 := prevY[(r0+2)*in : (r0+2)*in+in]
			y3 := prevY[(r0+3)*in : (r0+3)*in+in]
			if d0 != 0 && d1 != 0 && d2 != 0 && d3 != 0 {
				accum4(grow, y0, y1, y2, y3, d0, d1, d2, d3)
				gb += d0
				gb += d1
				gb += d2
				gb += d3
				continue
			}
			if d0 != 0 {
				axpy(grow, y0, d0)
				gb += d0
			}
			if d1 != 0 {
				axpy(grow, y1, d1)
				gb += d1
			}
			if d2 != 0 {
				axpy(grow, y2, d2)
				gb += d2
			}
			if d3 != 0 {
				axpy(grow, y3, d3)
				gb += d3
			}
		}
		for r := bFull; r < b; r++ { // ragged tail, per sample in order
			if dv := d[r*out+o]; dv != 0 {
				axpy(grow, prevY[r*in:r*in+in], dv)
				gb += dv
			}
		}
		l.gb[o] = gb
	}
}

// accum4 adds four samples' contributions into one gradient row:
// g[i] += d0·y0[i], then d1·y1[i], d2·y2[i], d3·y3[i], each product
// rounded and added on its own in that order. The AVX2 kernel takes the
// 4-aligned prefix (cells in vector lanes, separate multiply and add) and
// the loop below the rest, or all of it without AVX2.
func accum4(g, y0, y1, y2, y3 []float64, d0, d1, d2, d3 float64) {
	n := len(g)
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	i := 0
	if useAVX2 && n >= 4 {
		i = n &^ 3
		accum4avx2(&g[0], &y0[0], &y1[0], &y2[0], &y3[0], int64(i), d0, d1, d2, d3)
	}
	for ; i < n; i++ {
		v := g[i]
		v += d0 * y0[i]
		v += d1 * y1[i]
		v += d2 * y2[i]
		v += d3 * y3[i]
		g[i] = v
	}
}

// axpy adds a·y into g element-wise.
func axpy(g, y []float64, a float64) {
	for i, v := range y {
		g[i] += a * v
	}
}

// propagateDeltas computes the previous layer's batch deltas:
// prev.d[r][i] = (Σ_o d[r][o]·w[o][i])·act′, with the o-sum accumulated
// in ascending order and zero-delta outputs skipped, matching the scalar
// reference bit for bit. The sum runs as per-output axpys over contiguous
// weight rows instead of the reference's strided column walk, which is
// the same additions in the same per-element order.
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
			wrow := l.w[o*in : (o+1)*in]
			for i, wv := range wrow {
				nd[i] += dv * wv
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
