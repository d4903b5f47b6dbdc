// Package nn is a small, dependency-free feed-forward neural network used
// by the RL agent of §III-A: a multi-layer perceptron with tanh hidden
// activations and a linear output layer (the architecture the paper
// settled on after hyperparameter exploration: 334-175-16), trained by
// stochastic gradient descent or Adam against mean-squared error.
package nn

import (
	"bufio"
	"encoding/binary"
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

// layer is one fully connected layer. Weights are stored input-major, so
// the weights from one input to every output are contiguous and SIMD
// lanes can run across outputs; gw, mw and vw share the layout.
type layer struct {
	in, out int
	act     Activation
	w       []float64 // in × out: w[k*out+o] connects input k to output o
	b       []float64 // out

	// forward scratch, batchCap rows of out (row-major): row r of z holds
	// sample r's pre-activations, row r of y its activation outputs. The
	// scalar path is simply batch row 0.
	z []float64
	y []float64

	// Training state, allocated by ensureTrain on the first training call
	// (BackwardBatch, BackwardRef, AdamStep) or by LoadFull: a network
	// that only runs inference never carries it.
	// d is the backward scratch (batchCap × out error terms), gw/gb the
	// gradient accumulators, mw/vw/mb/vb the Adam moments.
	d      []float64
	gw, gb []float64
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
// Weights are drawn output by output, each output's fan-in in ascending
// input order.
func NewMLP(inputs int, seed uint64, specs ...LayerSpec) *MLP {
	m := newMLP(inputs, specs)
	rng := xrand.New(seed)
	for _, l := range m.layers {
		scale := math.Sqrt(6.0 / float64(l.in+l.out))
		for o := 0; o < l.out; o++ {
			for k := 0; k < l.in; k++ {
				l.w[k*l.out+o] = (rng.Float64()*2 - 1) * scale
			}
		}
	}
	return m
}

// newMLP builds a network with zero weights and biases and no training
// state.
func newMLP(inputs int, specs []LayerSpec) *MLP {
	if inputs <= 0 || len(specs) == 0 {
		panic("nn: NewMLP needs a positive input width and at least one layer")
	}
	m := &MLP{batchCap: 1, batchCur: 1}
	in := inputs
	for _, s := range specs {
		if s.Units <= 0 {
			panic("nn: layer with non-positive units")
		}
		m.layers = append(m.layers, &layer{
			in: in, out: s.Units, act: s.Act,
			w: make([]float64, in*s.Units, in*s.Units+bSlack),
			b: make([]float64, s.Units),
			z: make([]float64, s.Units),
			y: make([]float64, s.Units),
		})
		in = s.Units
	}
	return m
}

// Clone returns a copy of m's architecture, weights and biases, without
// training state — the DQN target network.
func (m *MLP) Clone() *MLP {
	specs := make([]LayerSpec, len(m.layers))
	for i, l := range m.layers {
		specs[i] = LayerSpec{Units: l.out, Act: l.act}
	}
	c := newMLP(m.layers[0].in, specs)
	c.CopyWeightsFrom(m)
	return c
}

// ensureTrain gives every layer its training state, with delta scratch
// for batchCap rows.
func (m *MLP) ensureTrain() {
	for _, l := range m.layers {
		l.ensureTrain(m.batchCap)
	}
}

// ensureTrain allocates the layer's gradient and Adam state, and delta
// scratch for rows rows, where they are missing.
func (l *layer) ensureTrain(rows int) {
	if l.gw == nil {
		n := l.in * l.out
		l.gw, l.mw, l.vw = make([]float64, n), make([]float64, n), make([]float64, n)
		l.gb, l.mb, l.vb = make([]float64, l.out), make([]float64, l.out), make([]float64, l.out)
	}
	if len(l.d) < rows*l.out {
		l.d = make([]float64, rows*l.out, rows*l.out+bSlack)
	}
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
	m.ensureTrain()
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
	return append([]float64(nil), l.w[i*l.out:(i+1)*l.out]...)
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
// epoch into the run manifest. Weights are summed output by output, each
// output's fan-in in ascending input order.
func (m *MLP) WeightNorm() float64 {
	sum := 0.0
	for _, l := range m.layers {
		for o := 0; o < l.out; o++ {
			for k := 0; k < l.in; k++ {
				w := l.w[k*l.out+o]
				sum += w * w
			}
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
func (m *MLP) Save(w io.Writer) error { return m.save(w, false) }

// SaveFull serializes the network's complete training state: architecture,
// weights, and the Adam optimizer state (step counter and both moment
// vectors; zeros for a network that never trained). Accumulated gradients
// are NOT saved — they are only ever non-zero inside a training step, and
// checkpoints are taken between steps.
func (m *MLP) SaveFull(w io.Writer) error { return m.save(w, true) }

// save writes the Save (full false) or SaveFull format. Weight matrices
// are written output by output, each output's fan-in in ascending input
// order, through one reused row buffer.
func (m *MLP) save(w io.Writer, full bool) error {
	bw := bufio.NewWriter(w)
	magic := mlpMagic
	if full {
		magic = mlpFullMagic
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	buf := make([]byte, 8*m.maxWidth())
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf, v)
		_, err := bw.Write(buf[:8])
		return err
	}
	if err := put(uint64(m.layers[0].in)); err != nil {
		return err
	}
	if err := put(uint64(len(m.layers))); err != nil {
		return err
	}
	for _, l := range m.layers {
		if err := put(uint64(l.out)); err != nil {
			return err
		}
		if err := put(uint64(l.act)); err != nil {
			return err
		}
		for _, v := range l.vectors(full) {
			if err := writeOutMajor(bw, v.data, v.in, v.out, buf); err != nil {
				return err
			}
		}
	}
	if full {
		if err := put(uint64(m.t)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxWidth returns the widest layer input or output.
func (m *MLP) maxWidth() int {
	n := 0
	for _, l := range m.layers {
		n = max(n, l.in, l.out)
	}
	return n
}

// serialVec is one serialized vector of a layer: an in×out input-major
// matrix. A bias-shaped vector is an out×1 matrix, written as one row.
type serialVec struct {
	data    []float64
	in, out int
}

// vectors lists the layer's serialized vectors in format order: w and b,
// then (full) mw, vw, mb and vb.
func (l *layer) vectors(full bool) []serialVec {
	vs := []serialVec{{l.w, l.in, l.out}, {l.b, l.out, 1}}
	if full {
		vs = append(vs, serialVec{l.mw, l.in, l.out}, serialVec{l.vw, l.in, l.out},
			serialVec{l.mb, l.out, 1}, serialVec{l.vb, l.out, 1})
	}
	return vs
}

// writeOutMajor writes the in×out input-major matrix v (zeros when v is
// nil) as out rows of in little-endian values, v[k*out+o] for ascending
// k within each o. buf holds at least 8·in bytes.
func writeOutMajor(w io.Writer, v []float64, in, out int, buf []byte) error {
	row := buf[:8*in]
	for o := 0; o < out; o++ {
		for k := 0; k < in; k++ {
			x := 0.0
			if v != nil {
				x = v[k*out+o]
			}
			binary.LittleEndian.PutUint64(row[8*k:], math.Float64bits(x))
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// readOutMajor is writeOutMajor's inverse: it fills the in×out
// input-major matrix v from out rows of in values.
func readOutMajor(r io.Reader, v []float64, in, out int, buf []byte) error {
	row := buf[:8*in]
	for o := 0; o < out; o++ {
		if _, err := io.ReadFull(r, row); err != nil {
			return err
		}
		for k := 0; k < in; k++ {
			v[k*out+o] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*k:]))
		}
	}
	return nil
}

// LoadFull deserializes a network saved with SaveFull. It reads exactly
// the bytes SaveFull wrote — no read-ahead buffering — so it can sit in
// the middle of a larger stream (a trainer checkpoint) without consuming
// the sections that follow it.
func LoadFull(r io.Reader) (*MLP, error) { return load(r, true) }

// Load deserializes a network saved with Save.
func Load(r io.Reader) (*MLP, error) { return load(bufio.NewReader(r), false) }

// load reads the Save (full false) or SaveFull format from r.
func load(r io.Reader, full bool) (*MLP, error) {
	magic, what := mlpMagic, "model"
	if full {
		magic, what = mlpFullMagic, "full-state"
	}
	var buf [8]byte
	get := func() (uint64, error) {
		_, err := io.ReadFull(r, buf[:])
		return binary.LittleEndian.Uint64(buf[:]), err
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, fmt.Errorf("nn: bad %s magic", what)
	}
	in64, err := get()
	if err != nil {
		return nil, err
	}
	nLayers, err := get()
	if err != nil {
		return nil, err
	}
	if in64 == 0 || in64 > 1<<20 || nLayers == 0 || nLayers > 64 {
		return nil, fmt.Errorf("nn: implausible %s header (in=%d layers=%d)", what, in64, nLayers)
	}
	var layers []*layer
	in := int(in64)
	for li := uint64(0); li < nLayers; li++ {
		out64, err := get()
		if err != nil {
			return nil, err
		}
		act64, err := get()
		if err != nil {
			return nil, err
		}
		if out64 == 0 || out64 > 1<<20 || act64 > uint64(ReLU) {
			return nil, fmt.Errorf("nn: implausible layer header (out=%d act=%d)", out64, act64)
		}
		l := newMLP(in, []LayerSpec{{Units: int(out64), Act: Activation(act64)}}).layers[0]
		if full {
			l.ensureTrain(1)
		}
		row := make([]byte, 8*max(l.in, l.out))
		for _, v := range l.vectors(full) {
			if err := readOutMajor(r, v.data, v.in, v.out, row); err != nil {
				return nil, err
			}
		}
		layers = append(layers, l)
		in = l.out
	}
	m := &MLP{layers: layers, batchCap: 1, batchCur: 1}
	if full {
		t64, err := get()
		if err != nil {
			return nil, err
		}
		m.t = int(t64)
	}
	return m, nil
}
