package nn

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestForwardShapes(t *testing.T) {
	m := NewMLP(4, 1, LayerSpec{Units: 8, Act: Tanh}, LayerSpec{Units: 3, Act: Linear})
	if m.InputSize() != 4 || m.OutputSize() != 3 {
		t.Fatalf("sizes = %d/%d, want 4/3", m.InputSize(), m.OutputSize())
	}
	out := m.Forward([]float64{1, 0, -1, 0.5})
	if len(out) != 3 {
		t.Fatalf("output len = %d", len(out))
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite output %v", out)
		}
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	m := NewMLP(4, 1, LayerSpec{Units: 2, Act: Linear})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size input did not panic")
		}
	}()
	m.Forward([]float64{1, 2})
}

func TestDeterministicInit(t *testing.T) {
	a := NewMLP(6, 42, LayerSpec{Units: 5, Act: Tanh}, LayerSpec{Units: 2, Act: Linear})
	b := NewMLP(6, 42, LayerSpec{Units: 5, Act: Tanh}, LayerSpec{Units: 2, Act: Linear})
	x := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	ya, yb := a.Forward(x), b.Forward(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("same-seed networks differ")
		}
	}
}

// numericalGradCheck compares backprop gradients against finite differences
// on a tiny network.
func TestGradientCheck(t *testing.T) {
	m := NewMLP(3, 7, LayerSpec{Units: 4, Act: Tanh}, LayerSpec{Units: 2, Act: Linear})
	x := []float64{0.3, -0.7, 0.5}
	target := []float64{0.2, -0.1}

	loss := func() float64 {
		y := m.Forward(x)
		s := 0.0
		for i := range y {
			d := y[i] - target[i]
			s += 0.5 * d * d
		}
		return s
	}

	m.ZeroGrad()
	m.Forward(x)
	m.Backward(target)

	const eps = 1e-6
	for li, l := range m.layers {
		for i := range l.w {
			orig := l.w[i]
			l.w[i] = orig + eps
			lp := loss()
			l.w[i] = orig - eps
			lm := loss()
			l.w[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if diff := math.Abs(numeric - l.gw[i]); diff > 1e-5 {
				t.Fatalf("layer %d weight %d: numeric %g vs backprop %g", li, i, numeric, l.gw[i])
			}
		}
		for i := range l.b {
			orig := l.b[i]
			l.b[i] = orig + eps
			lp := loss()
			l.b[i] = orig - eps
			lm := loss()
			l.b[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if diff := math.Abs(numeric - l.gb[i]); diff > 1e-5 {
				t.Fatalf("layer %d bias %d: numeric %g vs backprop %g", li, i, numeric, l.gb[i])
			}
		}
	}
}

func TestMaskedBackward(t *testing.T) {
	// NaN targets must contribute no gradient: only the unmasked output's
	// fan-in weights change.
	m := NewMLP(2, 9, LayerSpec{Units: 2, Act: Linear})
	x := []float64{1, 1}
	m.ZeroGrad()
	m.Forward(x)
	m.Backward([]float64{math.NaN(), 5})
	l := m.layers[0] // gw is input-major: output o of input k at gw[k*2+o]
	if l.gw[0] != 0 || l.gw[2] != 0 || l.gb[0] != 0 {
		t.Error("masked output accumulated gradient")
	}
	if l.gw[1] == 0 || l.gb[1] == 0 {
		t.Error("unmasked output accumulated no gradient")
	}
}

func TestSGDLearnsXOR(t *testing.T) {
	m := NewMLP(2, 3, LayerSpec{Units: 8, Act: Tanh}, LayerSpec{Units: 1, Act: Linear})
	data := [][2][]float64{
		{{0, 0}, {0}}, {{0, 1}, {1}}, {{1, 0}, {1}}, {{1, 1}, {0}},
	}
	for epoch := 0; epoch < 4000; epoch++ {
		m.ZeroGrad()
		for _, d := range data {
			m.Forward(d[0])
			m.Backward(d[1])
		}
		m.SGDStep(0.2, len(data))
	}
	for _, d := range data {
		y := m.Forward(d[0])[0]
		if math.Abs(y-d[1][0]) > 0.2 {
			t.Errorf("XOR(%v) = %.3f, want %.0f", d[0], y, d[1][0])
		}
	}
}

func TestAdamLearnsRegression(t *testing.T) {
	// y = 2x0 - 3x1 + 1, learnable quickly with Adam.
	m := NewMLP(2, 5, LayerSpec{Units: 16, Act: Tanh}, LayerSpec{Units: 1, Act: Linear})
	rng := xrand.New(11)
	for step := 0; step < 3000; step++ {
		m.ZeroGrad()
		for b := 0; b < 8; b++ {
			x0, x1 := rng.Float64()*2-1, rng.Float64()*2-1
			m.Forward([]float64{x0, x1})
			m.Backward([]float64{2*x0 - 3*x1 + 1})
		}
		m.AdamStep(0.005, 8)
	}
	worst := 0.0
	for i := 0; i < 100; i++ {
		x0, x1 := rng.Float64()*2-1, rng.Float64()*2-1
		got := m.Forward([]float64{x0, x1})[0]
		want := 2*x0 - 3*x1 + 1
		if e := math.Abs(got - want); e > worst {
			worst = e
		}
	}
	if worst > 0.35 {
		t.Errorf("regression worst-case error %.3f too large", worst)
	}
}

func same(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInputWeightAnalysis(t *testing.T) {
	m := NewMLP(3, 4, LayerSpec{Units: 5, Act: Tanh}, LayerSpec{Units: 1, Act: Linear})
	w := m.InputWeights(1)
	if len(w) != 5 {
		t.Fatalf("InputWeights len = %d, want 5", len(w))
	}
	mean := m.MeanAbsInputWeight(1)
	sum := 0.0
	for _, v := range w {
		sum += math.Abs(v)
	}
	if math.Abs(mean-sum/5) > 1e-12 {
		t.Errorf("MeanAbsInputWeight = %v, want %v", mean, sum/5)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewMLP(6, 13, LayerSpec{Units: 10, Act: Tanh}, LayerSpec{Units: 4, Act: Linear})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	ya := append([]float64(nil), m.Forward(x)...)
	yb := m2.Forward(x)
	if !same(ya, yb) {
		t.Errorf("loaded network differs: %v vs %v", ya, yb)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("Load of garbage succeeded")
	}
	if _, err := Load(bytes.NewReader([]byte(""))); err == nil {
		t.Error("Load of empty input succeeded")
	}
}

func TestForwardZeroAllocs(t *testing.T) {
	m := NewMLP(334, 1, LayerSpec{Units: 175, Act: Tanh}, LayerSpec{Units: 16, Act: Linear})
	x := make([]float64, 334)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	allocs := testing.AllocsPerRun(200, func() { m.Forward(x) })
	if allocs != 0 {
		t.Errorf("Forward allocates %.1f objects/op, want 0", allocs)
	}
}

func TestBackwardZeroAllocs(t *testing.T) {
	m := NewMLP(334, 1, LayerSpec{Units: 175, Act: Tanh}, LayerSpec{Units: 16, Act: Linear})
	x := make([]float64, 334)
	target := make([]float64, 16)
	for i := range target {
		target[i] = math.NaN() // DQN-style mask: train one action
	}
	target[3] = 0.5
	m.Forward(x)
	allocs := testing.AllocsPerRun(200, func() { m.Backward(target) })
	if allocs != 0 {
		t.Errorf("Backward allocates %.1f objects/op, want 0", allocs)
	}
}

func TestStepZeroAllocs(t *testing.T) {
	m := NewMLP(8, 1, LayerSpec{Units: 6, Act: Tanh}, LayerSpec{Units: 2, Act: Linear})
	x := make([]float64, 8)
	target := []float64{0.1, -0.1}
	allocs := testing.AllocsPerRun(200, func() {
		m.Forward(x)
		m.Backward(target)
		m.AdamStep(1e-3, 1)
	})
	if allocs != 0 {
		t.Errorf("Forward+Backward+AdamStep allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBackwardMaskReuse guards the delta-buffer reuse: a fully-masked target
// right after an unmasked one must produce zero gradient, not stale deltas.
func TestBackwardMaskReuse(t *testing.T) {
	m := NewMLP(3, 5, LayerSpec{Units: 4, Act: Tanh}, LayerSpec{Units: 2, Act: Linear})
	x := []float64{0.3, -0.2, 0.9}
	m.Forward(x)
	m.Backward([]float64{1, -1})
	m.ZeroGrad()
	m.Forward(x)
	m.Backward([]float64{math.NaN(), math.NaN()})
	for li, l := range m.layers {
		for i, g := range l.gw {
			if g != 0 {
				t.Fatalf("layer %d gw[%d] = %v after fully-masked Backward, want 0", li, i, g)
			}
		}
		for i, g := range l.gb {
			if g != 0 {
				t.Fatalf("layer %d gb[%d] = %v after fully-masked Backward, want 0", li, i, g)
			}
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
