package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestGeoMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{2, 8}, 4},
		{[]float64{1, 4, 16}, 4},
		{nil, 0},
	}
	for _, c := range cases {
		got, err := GeoMean(c.in)
		if err != nil {
			t.Errorf("GeoMean(%v): %v", c.in, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("GeoMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGeoMeanErrorsOnNonPositive(t *testing.T) {
	// Regression: non-positive input used to panic, taking down a whole
	// sweep over one degenerate value; it must now return an error.
	for _, in := range [][]float64{{1, 0, 2}, {-3}, {2, 8, -1e-9}} {
		if _, err := GeoMean(in); err == nil {
			t.Errorf("GeoMean(%v) returned nil error", in)
		}
	}
}

func TestGeoMeanLEArithmeticMean(t *testing.T) {
	// AM-GM inequality as a property test over positive inputs.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-9 && v < 1e9 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		gm, err := GeoMean(xs)
		return err == nil && gm <= Mean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
}

func TestArgMaxMin(t *testing.T) {
	xs := []float64{3, 9, 9, 1}
	if got := ArgMax(xs); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (tie toward low index)", got)
	}
	if got := ArgMin(xs); got != 3 {
		t.Errorf("ArgMin = %d, want 3", got)
	}
}

func TestArgMaxPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ArgMax(empty) did not panic")
		}
	}()
	ArgMax(nil)
}

func TestHistogramBuckets(t *testing.T) {
	// Buckets: (-inf,10) [10,50) [50,+inf) — the Figure 4 shape.
	h := NewHistogram(10, 50)
	for _, v := range []float64{0, 5, 9.99, 10, 30, 49, 50, 100} {
		h.Add(v)
	}
	counts := h.Counts()
	want := []int64{3, 3, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
	fr := h.Fractions()
	if !almostEqual(fr[0]+fr[1]+fr[2], 1, 1e-12) {
		t.Errorf("fractions do not sum to 1: %v", fr)
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
}

func TestHistogramEmptyFractions(t *testing.T) {
	h := NewHistogram(1, 2)
	for _, f := range h.Fractions() {
		if f != 0 {
			t.Errorf("empty histogram fraction = %v, want 0", f)
		}
	}
}

func TestHistogramPanicsOnBadBoundaries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending boundaries did not panic")
		}
	}()
	NewHistogram(5, 5)
}

func TestRunningMean(t *testing.T) {
	var r RunningMean
	if r.Mean() != 0 {
		t.Errorf("empty RunningMean = %v", r.Mean())
	}
	for _, v := range []float64{1, 2, 3, 4} {
		r.Add(v)
	}
	if !almostEqual(r.Mean(), 2.5, 1e-12) {
		t.Errorf("RunningMean = %v, want 2.5", r.Mean())
	}
	if r.Count() != 4 {
		t.Errorf("Count = %d, want 4", r.Count())
	}
}

func TestILog2(t *testing.T) {
	cases := []struct {
		in   uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {16, 4}, {17, 4}, {1 << 40, 40}}
	for _, c := range cases {
		if got := ILog2(c.in); got != c.want {
			t.Errorf("ILog2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := []struct {
		in   uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 4}, {17, 5}}
	for _, c := range cases {
		if got := CeilLog2(c.in); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 1024, 1 << 40} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []uint64{0, 3, 6, 1023} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestILog2Pow2Property(t *testing.T) {
	f := func(shift uint8) bool {
		s := int(shift % 63)
		return ILog2(1<<uint(s)) == s && CeilLog2(1<<uint(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
