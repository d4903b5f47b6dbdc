// Package nn is a small, dependency-free feed-forward neural network used
// by the RL agent of §III-A: a multi-layer perceptron with tanh hidden
// activations and a linear output layer (the architecture the paper
// settled on after hyperparameter exploration: 334-175-16), trained by
// stochastic gradient descent or Adam against mean-squared error.
package nn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/xrand"
)

// Activation selects a layer non-linearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	Tanh
	ReLU
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// derivative given the activation output y (and pre-activation x for ReLU).
func (a Activation) derivative(x, y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if x < 0 {
			return 0
		}
		return 1
	default:
		return 1
	}
}

// layer is one fully connected layer.
type layer struct {
	in, out int
	act     Activation
	w       []float64 // out × in, row-major
	b       []float64 // out

	// forward scratch, batchCap rows of out (row-major): row r of z holds
	// sample r's pre-activations, row r of y its activation outputs. The
	// scalar path is simply batch row 0.
	z []float64
	y []float64

	// backward scratch, batchCap × out: this layer's error terms.
	// Preallocated so Backward does no heap allocation in the training
	// loop; grown (never shrunk) by EnsureBatch.
	d []float64

	// gradient accumulators
	gw []float64
	gb []float64

	// Adam moments
	mw, vw []float64
	mb, vb []float64
}

// MLP is a feed-forward network.
type MLP struct {
	layers []*layer
	input  []float64 // the last Forward/ForwardBatch input (caller-owned)
	// batchCap is the allocated scratch capacity in rows; batchCur the row
	// count of the most recent forward pass (what Backward must match).
	batchCap, batchCur int
	// pack holds 4 input rows transposed to k-major for the vector kernel
	// (lane-contiguous columns); sized 4×max layer width by EnsureBatch.
	pack []float64
	// Adam step counter.
	t int
}

// LayerSpec defines one layer when constructing an MLP.
type LayerSpec struct {
	Units int
	Act   Activation
}

// NewMLP builds a network with the given input width and layers, with
// Xavier/Glorot-initialized weights drawn deterministically from seed.
func NewMLP(inputs int, seed uint64, specs ...LayerSpec) *MLP {
	if inputs <= 0 || len(specs) == 0 {
		panic("nn: NewMLP needs a positive input width and at least one layer")
	}
	rng := xrand.New(seed)
	m := &MLP{}
	in := inputs
	for _, s := range specs {
		if s.Units <= 0 {
			panic("nn: layer with non-positive units")
		}
		l := &layer{
			in: in, out: s.Units, act: s.Act,
			w:  make([]float64, s.Units*in),
			b:  make([]float64, s.Units),
			z:  make([]float64, s.Units),
			y:  make([]float64, s.Units),
			d:  make([]float64, s.Units),
			gw: make([]float64, s.Units*in),
			gb: make([]float64, s.Units),
			mw: make([]float64, s.Units*in),
			vw: make([]float64, s.Units*in),
			mb: make([]float64, s.Units),
			vb: make([]float64, s.Units),
		}
		scale := math.Sqrt(6.0 / float64(in+s.Units))
		for i := range l.w {
			l.w[i] = (rng.Float64()*2 - 1) * scale
		}
		m.layers = append(m.layers, l)
		in = s.Units
	}
	m.batchCap, m.batchCur = 1, 1
	return m
}

// InputSize returns the network's input width.
func (m *MLP) InputSize() int { return m.layers[0].in }

// OutputSize returns the network's output width.
func (m *MLP) OutputSize() int { return m.layers[len(m.layers)-1].out }

// Forward runs inference; the returned slice is owned by the network and
// valid until the next Forward call. It is the B=1 case of ForwardBatch
// (and bit-identical to ForwardRef: the kernels keep the same per-output
// summation order).
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.layers[0].in {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.layers[0].in))
	}
	return m.ForwardBatch(x, 1)
}

// Backward accumulates gradients of 0.5·Σ(output − target)² for the most
// recent Forward. Components with target set to NaN are masked out (their
// error is treated as zero) — the DQN update trains only the taken action.
// It is the B=1 case of BackwardBatch.
func (m *MLP) Backward(target []float64) {
	last := m.layers[len(m.layers)-1]
	if len(target) != last.out {
		panic(fmt.Sprintf("nn: target size %d, want %d", len(target), last.out))
	}
	m.BackwardBatch(target, 1)
}

// ForwardRef is the pre-batching scalar inference path, retained verbatim
// as the equivalence baseline for the matrix kernels (the BeladyMapRef
// precedent): one latency-bound dot product per output. Tests assert
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
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range cur {
				sum += row[i] * v
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
			row := l.gw[o*l.in : (o+1)*l.in]
			for i, v := range prevY {
				row[i] += d * v
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
						sum += delta[o] * l.w[o*l.in+i]
					}
				}
				nd[i] = sum * prev.act.derivative(prev.z[i], prev.y[i])
			}
			delta = nd
		}
	}
}

// ZeroGrad clears accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.layers {
		for i := range l.gw {
			l.gw[i] = 0
		}
		for i := range l.gb {
			l.gb[i] = 0
		}
	}
}

// SGDStep applies one plain gradient step with the given learning rate,
// dividing accumulated gradients by batch (the number of Backward calls
// since ZeroGrad), then clears them.
func (m *MLP) SGDStep(lr float64, batch int) {
	if batch < 1 {
		batch = 1
	}
	scale := lr / float64(batch)
	for _, l := range m.layers {
		for i := range l.w {
			l.w[i] -= scale * l.gw[i]
		}
		for i := range l.b {
			l.b[i] -= scale * l.gb[i]
		}
	}
	m.ZeroGrad()
}

// Adam hyperparameters (standard defaults).
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// AdamStep applies one Adam update with the given learning rate over the
// accumulated (batch-averaged) gradients, clearing them as it consumes
// them.
func (m *MLP) AdamStep(lr float64, batch int) {
	if batch < 1 {
		batch = 1
	}
	m.t++
	bc1 := 1 - math.Pow(adamBeta1, float64(m.t))
	bc2 := 1 - math.Pow(adamBeta2, float64(m.t))
	inv := 1 / float64(batch)
	for _, l := range m.layers {
		adam(l.w, l.gw, l.mw, l.vw, lr, inv, bc1, bc2)
		adam(l.b, l.gb, l.mb, l.vb, lr, inv, bc1, bc2)
	}
}

// adam updates parameters w from gradients g and moments mo/ve, and sets
// every g[i] to zero. With AVX2 the 4-aligned prefix runs in adamAVX2,
// which performs the loop's operations in the same order; the constants
// (1-adamBeta1) and (1-adamBeta2) are folded exactly at compile time and
// rounded once, so the kernel gets them as float64 values rather than
// computing 1-0.9 at run time.
func adam(w, g, mo, ve []float64, lr, inv, bc1, bc2 float64) {
	n := len(w)
	g, mo, ve = g[:n], mo[:n], ve[:n]
	i := 0
	if useAVX2 && n >= 4 {
		i = n &^ 3
		adamAVX2(&w[0], &g[0], &mo[0], &ve[0], int64(i),
			lr, inv, bc1, bc2, adamBeta1, 1-adamBeta1, adamBeta2, 1-adamBeta2, adamEps)
	}
	for ; i < n; i++ {
		gi := g[i] * inv
		g[i] = 0
		mo[i] = adamBeta1*mo[i] + (1-adamBeta1)*gi
		ve[i] = adamBeta2*ve[i] + (1-adamBeta2)*gi*gi
		w[i] -= lr * (mo[i] / bc1) / (math.Sqrt(ve[i]/bc2) + adamEps)
	}
}

// CopyWeightsFrom copies weights and biases from src (same architecture).
// It is the DQN target-network sync.
func (m *MLP) CopyWeightsFrom(src *MLP) {
	if len(m.layers) != len(src.layers) {
		panic("nn: architecture mismatch in CopyWeightsFrom")
	}
	for i, l := range m.layers {
		s := src.layers[i]
		if l.in != s.in || l.out != s.out {
			panic("nn: layer shape mismatch in CopyWeightsFrom")
		}
		copy(l.w, s.w)
		copy(l.b, s.b)
	}
}

// InputWeights returns, for input i, the weight vector from input i into
// every first-hidden-layer neuron. The heat-map analysis of §III-B
// averages |w| over this vector.
func (m *MLP) InputWeights(i int) []float64 {
	l := m.layers[0]
	if i < 0 || i >= l.in {
		panic("nn: input index out of range")
	}
	out := make([]float64, l.out)
	for o := 0; o < l.out; o++ {
		out[o] = l.w[o*l.in+i]
	}
	return out
}

// MeanAbsInputWeight returns mean(|w|) of input i's fan-out into the first
// hidden layer — the feature-importance score behind Figure 3.
func (m *MLP) MeanAbsInputWeight(i int) float64 {
	ws := m.InputWeights(i)
	sum := 0.0
	for _, w := range ws {
		sum += math.Abs(w)
	}
	return sum / float64(len(ws))
}

// WeightNorm returns the L2 norm over every weight and bias — a cheap
// scalar trajectory of how far training has moved the network, logged per
// epoch into the run manifest.
func (m *MLP) WeightNorm() float64 {
	sum := 0.0
	for _, l := range m.layers {
		for _, w := range l.w {
			sum += w * w
		}
		for _, b := range l.b {
			sum += b * b
		}
	}
	return math.Sqrt(sum)
}

const (
	mlpMagic = "RLRNN1\n"
	// mlpFullMagic heads the full-training-state format: the RLRNN1 layout
	// followed by the Adam step counter and per-layer first/second moments.
	// Resuming a checkpointed run from this state is bit-exact: the next
	// AdamStep sees the same t, m, and v an uninterrupted run would.
	mlpFullMagic = "RLRNN1F\n"
)

// Save serializes the network (architecture + weights) to w.
func (m *MLP) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(mlpMagic); err != nil {
		return err
	}
	write := func(v uint64) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := write(uint64(m.layers[0].in)); err != nil {
		return err
	}
	if err := write(uint64(len(m.layers))); err != nil {
		return err
	}
	for _, l := range m.layers {
		if err := write(uint64(l.out)); err != nil {
			return err
		}
		if err := write(uint64(l.act)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, l.w); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, l.b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFull serializes the network's complete training state: architecture,
// weights, and the Adam optimizer state (step counter and both moment
// vectors). Accumulated gradients are NOT saved — they are only ever
// non-zero inside a training step, and checkpoints are taken between steps.
func (m *MLP) SaveFull(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(mlpFullMagic); err != nil {
		return err
	}
	write := func(v uint64) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := write(uint64(m.layers[0].in)); err != nil {
		return err
	}
	if err := write(uint64(len(m.layers))); err != nil {
		return err
	}
	for _, l := range m.layers {
		if err := write(uint64(l.out)); err != nil {
			return err
		}
		if err := write(uint64(l.act)); err != nil {
			return err
		}
		for _, vec := range [][]float64{l.w, l.b, l.mw, l.vw, l.mb, l.vb} {
			if err := binary.Write(bw, binary.LittleEndian, vec); err != nil {
				return err
			}
		}
	}
	if err := write(uint64(m.t)); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadFull deserializes a network saved with SaveFull. It reads exactly
// the bytes SaveFull wrote — no read-ahead buffering — so it can sit in
// the middle of a larger stream (a trainer checkpoint) without consuming
// the sections that follow it.
func LoadFull(r io.Reader) (*MLP, error) {
	head := make([]byte, len(mlpFullMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	if string(head) != mlpFullMagic {
		return nil, errors.New("nn: bad full-state magic")
	}
	var in64, nLayers uint64
	if err := binary.Read(r, binary.LittleEndian, &in64); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &nLayers); err != nil {
		return nil, err
	}
	if in64 == 0 || in64 > 1<<20 || nLayers == 0 || nLayers > 64 {
		return nil, fmt.Errorf("nn: implausible full-state header (in=%d layers=%d)", in64, nLayers)
	}
	specs := make([]LayerSpec, 0, nLayers)
	type raw struct{ vecs [6][]float64 }
	raws := make([]raw, 0, nLayers)
	in := int(in64)
	for li := uint64(0); li < nLayers; li++ {
		var out64, act64 uint64
		if err := binary.Read(r, binary.LittleEndian, &out64); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &act64); err != nil {
			return nil, err
		}
		if out64 == 0 || out64 > 1<<20 || act64 > uint64(ReLU) {
			return nil, fmt.Errorf("nn: implausible layer header (out=%d act=%d)", out64, act64)
		}
		var rw raw
		for v := range rw.vecs {
			n := int(out64) * in
			if v == 1 || v == 4 || v == 5 { // b, mb, vb are out-sized
				n = int(out64)
			}
			rw.vecs[v] = make([]float64, n)
			if err := binary.Read(r, binary.LittleEndian, rw.vecs[v]); err != nil {
				return nil, err
			}
		}
		specs = append(specs, LayerSpec{Units: int(out64), Act: Activation(act64)})
		raws = append(raws, rw)
		in = int(out64)
	}
	var t64 uint64
	if err := binary.Read(r, binary.LittleEndian, &t64); err != nil {
		return nil, err
	}
	m := NewMLP(int(in64), 0, specs...)
	for i, l := range m.layers {
		copy(l.w, raws[i].vecs[0])
		copy(l.b, raws[i].vecs[1])
		copy(l.mw, raws[i].vecs[2])
		copy(l.vw, raws[i].vecs[3])
		copy(l.mb, raws[i].vecs[4])
		copy(l.vb, raws[i].vecs[5])
	}
	m.t = int(t64)
	return m, nil
}

// Load deserializes a network saved with Save.
func Load(r io.Reader) (*MLP, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(mlpMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	if string(head) != mlpMagic {
		return nil, errors.New("nn: bad model file magic")
	}
	var in64, nLayers uint64
	if err := binary.Read(br, binary.LittleEndian, &in64); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nLayers); err != nil {
		return nil, err
	}
	if in64 == 0 || in64 > 1<<20 || nLayers == 0 || nLayers > 64 {
		return nil, fmt.Errorf("nn: implausible model header (in=%d layers=%d)", in64, nLayers)
	}
	specs := make([]LayerSpec, 0, nLayers)
	type raw struct{ w, b []float64 }
	raws := make([]raw, 0, nLayers)
	in := int(in64)
	for li := uint64(0); li < nLayers; li++ {
		var out64, act64 uint64
		if err := binary.Read(br, binary.LittleEndian, &out64); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &act64); err != nil {
			return nil, err
		}
		if out64 == 0 || out64 > 1<<20 || act64 > uint64(ReLU) {
			return nil, fmt.Errorf("nn: implausible layer header (out=%d act=%d)", out64, act64)
		}
		w := make([]float64, int(out64)*in)
		b := make([]float64, out64)
		if err := binary.Read(br, binary.LittleEndian, w); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, b); err != nil {
			return nil, err
		}
		specs = append(specs, LayerSpec{Units: int(out64), Act: Activation(act64)})
		raws = append(raws, raw{w, b})
		in = int(out64)
	}
	m := NewMLP(int(in64), 0, specs...)
	for i, l := range m.layers {
		copy(l.w, raws[i].w)
		copy(l.b, raws[i].b)
	}
	return m, nil
}
