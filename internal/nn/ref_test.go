// ref_test.go holds the scalar reference paths: the tests check the batched
// kernels against them bit for bit, and the hot-path benchmarks report the
// batched speedups against ForwardRef.
package nn

import (
	"fmt"
	"math"
)

// ForwardRef is the pre-batching scalar inference path, retained as the
// equivalence baseline for the matrix kernels: one latency-bound dot
// product per output, reading that output's weights at stride out. Tests
// assert
// Forward and every ForwardBatch row are bit-identical to it, and the
// bench harness reports the batched speedup against it.
func (m *MLP) ForwardRef(x []float64) []float64 {
	if len(x) != m.layers[0].in {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.layers[0].in))
	}
	m.input = x
	m.batchCur = 1
	cur := x
	for _, l := range m.layers {
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			for k, v := range cur {
				sum += l.w[k*l.out+o] * v
			}
			l.z[o] = sum
			l.y[o] = l.act.apply(sum)
		}
		cur = l.y[:l.out]
	}
	return cur
}

// BackwardRef is the pre-batching scalar gradient accumulation, retained
// as the equivalence baseline for BackwardBatch. It must follow ForwardRef
// (or any B=1 forward).
func (m *MLP) BackwardRef(target []float64) {
	last := m.layers[len(m.layers)-1]
	if len(target) != last.out {
		panic(fmt.Sprintf("nn: target size %d, want %d", len(target), last.out))
	}
	if m.batchCur != 1 {
		panic("nn: BackwardRef needs a B=1 forward pass")
	}
	m.ensureTrain()
	// Delta buffers are reused across calls, so masked components must be
	// written to zero rather than skipped.
	delta := last.d[:last.out]
	for o := range delta {
		if math.IsNaN(target[o]) {
			delta[o] = 0
			continue
		}
		delta[o] = (last.y[o] - target[o]) * last.act.derivative(last.z[o], last.y[o])
	}
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		var prevY []float64
		if li == 0 {
			prevY = m.input
		} else {
			prevY = m.layers[li-1].y[:m.layers[li-1].out]
		}
		for o := 0; o < l.out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			for i, v := range prevY {
				l.gw[i*l.out+o] += d * v
			}
			l.gb[o] += d
		}
		if li > 0 {
			prev := m.layers[li-1]
			nd := prev.d[:prev.out] // fully overwritten below
			for i := 0; i < prev.out; i++ {
				sum := 0.0
				for o := 0; o < l.out; o++ {
					if delta[o] != 0 {
						sum += delta[o] * l.w[i*l.out+o]
					}
				}
				nd[i] = sum * prev.act.derivative(prev.z[i], prev.y[i])
			}
			delta = nd
		}
	}
}
