package mathx

// Test-only helpers: accessors and utilities that only tests call.

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ArgMax returns the index of the maximum value in xs, breaking ties toward
// the lowest index. It panics on an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the minimum value in xs, breaking ties toward
// the lowest index. It panics on an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMin of empty slice")
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

// Counts returns a copy of the raw bucket counts (len(boundaries)+1).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}
