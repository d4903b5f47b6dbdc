package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the canonical SplitMix64
	// implementation (Vigna). Guards against accidental algorithm drift,
	// which would silently change every experiment in the repository.
	sm := NewSplitMix64(1234567)
	want := []uint64{
		0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Errorf("SplitMix64 value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed generators diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(8)
	const p = 0.25
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricP1(t *testing.T) {
	r := New(8)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(13)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 should be roughly 2x rank 1 and much hotter than rank 500.
	if counts[0] < counts[1] {
		t.Errorf("Zipf rank 0 (%d) not hotter than rank 1 (%d)", counts[0], counts[1])
	}
	if counts[0] < 20*counts[500] {
		t.Errorf("Zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
}

func TestZipfZeroExponentIsUniformish(t *testing.T) {
	r := New(21)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Errorf("Zipf(s=0) bucket %d = %d, want ~%d", i, c, n/10)
		}
	}
}

func TestMix64Property(t *testing.T) {
	// Mix64 must be a bijection-like hash: distinct inputs map to distinct
	// outputs over a random sample (collision ⇒ broken constants).
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix64(a) != Mix64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nProperty(t *testing.T) {
	r := New(77)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
