// quant.go implements the frozen-policy inference path: an int8-weight
// copy of a trained MLP for evaluation-only runs. Weights are quantized
// per output row (scale = maxAbs/127), activations are quantized
// statically to an 11-bit grid (the feature vector lives in [0,1] and
// tanh outputs in [-1,1], so a fixed [-1,1]→[-2047,2047] grid loses
// nothing structural; activations are stored as int16 for the VPMADDWD
// kernel anyway, so the extra resolution over int8 is free and keeps the
// workload-level hit-rate delta inside the 0.1 pp quantgate), and each
// dot product runs in int32 — exact integer arithmetic, so the pure-Go
// and SIMD kernels agree bit-for-bit and the only approximation is the
// initial rounding. Biases and the dequantized outputs stay float64. The quantized net never trains; build it from a
// trained MLP with Quantize and gate its use behind the experiment-level
// accuracy check (hit-rate delta vs float inference).
//
// Layout: weight rows are zero-padded to a multiple of 16 columns (one
// SIMD block) and the row count to a multiple of 4 (one kernel call), so
// the vector kernel needs no tail handling. Zero weights and zero padded
// activations contribute exactly 0 to an integer sum, so padding cannot
// change a result.
package nn

import (
	"fmt"
	"math"
)

const (
	qSteps   = 127  // int8 weight grid: [-rowMax,rowMax] → [-127,127]
	actSteps = 2047 // int16 activation grid: [-1,1] → [-2047,2047]

	// maxQuantIn bounds a layer's input width so the int32 accumulators
	// cannot overflow: in × 127 × 2047 must stay under 2^31.
	maxQuantIn = 4096
)

// qlayer is one quantized fully connected layer.
type qlayer struct {
	in, out   int
	inP, outP int // padded dims: in→×16, out→×4
	act       Activation
	w         []int8    // outP × inP, row-major, row-scaled, zero-padded
	b         []float64 // out, kept in float
	deq       []float64 // out: rowScale/qSteps, turns an int32 acc into a float pre-activation
	acc       []int32   // out, integer accumulator scratch
	y         []float64 // out, dequantized activation scratch
}

// Quantized is a frozen int8 copy of an MLP, for inference only.
type Quantized struct {
	layers []*qlayer
	qx     []int16 // current quantized activations (11-bit values in int16, as the kernels read them)
	lanes  [32]int32
}

// Quantize builds the int8 network from a trained float MLP. The source
// network is read, not retained; later training steps on it do not affect
// the quantized copy.
func Quantize(m *MLP) *Quantized {
	q := &Quantized{}
	maxInP := 0
	for _, l := range m.layers {
		if l.in > maxQuantIn {
			panic(fmt.Sprintf("nn: layer input width %d exceeds the int32-safe quantization bound %d", l.in, maxQuantIn))
		}
		inP := (l.in + 15) &^ 15
		outP := (l.out + 3) &^ 3
		ql := &qlayer{
			in: l.in, out: l.out, inP: inP, outP: outP, act: l.act,
			w:   make([]int8, outP*inP),
			b:   make([]float64, l.out),
			deq: make([]float64, l.out),
			acc: make([]int32, l.out),
			y:   make([]float64, l.out),
		}
		copy(ql.b, l.b)
		for o := 0; o < l.out; o++ {
			scale := 0.0
			for k := 0; k < l.in; k++ {
				if a := math.Abs(l.w[k*l.out+o]); a > scale {
					scale = a
				}
			}
			if scale == 0 {
				scale = 1 // all-zero row: any scale maps 0→0
			}
			scale /= qSteps
			ql.deq[o] = scale / actSteps
			for i := 0; i < l.in; i++ {
				qv := math.Round(l.w[i*l.out+o] / scale)
				if qv > qSteps {
					qv = qSteps
				} else if qv < -qSteps {
					qv = -qSteps
				}
				ql.w[o*inP+i] = int8(qv)
			}
		}
		q.layers = append(q.layers, ql)
		if inP > maxInP {
			maxInP = inP
		}
	}
	q.qx = make([]int16, maxInP) // padding lanes stay zero forever
	return q
}

// Forward runs int8 inference on one input vector. The returned slice is
// owned by the network and valid until the next call. Allocation-free
// after construction.
func (q *Quantized) Forward(x []float64) []float64 {
	l0 := q.layers[0]
	if len(x) != l0.in {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), l0.in))
	}
	quantizeActs(q.qx[:l0.in], x)
	for i := l0.in; i < l0.inP; i++ {
		q.qx[i] = 0 // clear lanes a previous pass through a wider layer may have set
	}
	var y []float64
	for li, l := range q.layers {
		l.dots(q.qx, &q.lanes)
		y = l.y
		for o := 0; o < l.out; o++ {
			v := l.b[o] + float64(l.acc[o])*l.deq[o]
			switch l.act {
			case Tanh:
				v = math.Tanh(v)
			case ReLU:
				if v < 0 {
					v = 0
				}
			}
			y[o] = v
		}
		if li < len(q.layers)-1 {
			next := q.layers[li+1]
			quantizeActs(q.qx[:l.out], y)
			for i := l.out; i < next.inP; i++ {
				q.qx[i] = 0 // zero the padding block the next layer's kernel will read
			}
		}
	}
	return y
}

// quantizeActs maps float activations onto the 11-bit grid: clamp to
// [-1,1], scale by 2047, round to nearest (half up — Floor is the
// intrinsified rounding primitive, and both kernels share whatever grid
// this produces).
func quantizeActs(dst []int16, src []float64) {
	for i, v := range src {
		if v > 1 {
			v = 1
		} else if v < -1 {
			v = -1
		}
		dst[i] = int16(math.Floor(v*actSteps + 0.5))
	}
}

// dots fills l.acc with the integer dot products of every weight row
// against the quantized activations. With AVX2 the padded layout means
// the kernel covers the whole matrix in 4-row calls; the pure-Go loop is
// the portable fallback. Integer addition is associative, so both paths
// give identical sums.
func (l *qlayer) dots(qx []int16, lanes *[32]int32) {
	inP := l.inP
	if useAVX2 && inP >= 16 {
		blocks := int64(inP / 16)
		for o0 := 0; o0 < l.out; o0 += 4 {
			quantDot4(&l.w[o0*inP], int64(inP), &qx[0], blocks, &lanes[0])
			n := l.out - o0
			if n > 4 {
				n = 4
			}
			for c := 0; c < n; c++ {
				k := c * 8
				l.acc[o0+c] = lanes[k] + lanes[k+1] + lanes[k+2] + lanes[k+3] +
					lanes[k+4] + lanes[k+5] + lanes[k+6] + lanes[k+7]
			}
		}
		return
	}
	for o := 0; o < l.out; o++ {
		row := l.w[o*inP : o*inP+l.in]
		acc := int32(0)
		for k, wv := range row {
			acc += int32(wv) * int32(qx[k])
		}
		l.acc[o] = acc
	}
}
