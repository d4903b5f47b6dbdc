// Package mathx provides the small numeric helpers shared by the simulator,
// the RL stack, and the experiment harness: geometric means, percentiles,
// histograms, and simple descriptive statistics.
package mathx

import (
	"fmt"
	"math"
	"sort"
)

// GeoMean returns the geometric mean of xs, which is only defined for
// positive inputs (the IPC speedups this repository aggregates). It returns
// 0 for an empty slice and an error naming the offending value for
// non-positive input, so one degenerate cell in a long sweep surfaces as an
// annotated result instead of tearing the whole run down.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("mathx: GeoMean undefined for non-positive value %g at index %d", x, i)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Histogram counts values into buckets delimited by the sorted boundaries.
// A value v lands in bucket i when boundaries[i-1] <= v < boundaries[i];
// values >= the last boundary land in the final overflow bucket, so the
// result has len(boundaries)+1 entries.
type Histogram struct {
	boundaries []float64
	counts     []int64
	total      int64
}

// NewHistogram builds a histogram with the given ascending bucket
// boundaries. It panics if the boundaries are not strictly ascending.
func NewHistogram(boundaries ...float64) *Histogram {
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			panic("mathx: histogram boundaries must be strictly ascending")
		}
	}
	b := make([]float64, len(boundaries))
	copy(b, boundaries)
	return &Histogram{boundaries: b, counts: make([]int64, len(b)+1)}
}

// Add records one observation of v.
func (h *Histogram) Add(v float64) {
	idx := sort.SearchFloat64s(h.boundaries, v)
	// SearchFloat64s returns the first i with boundaries[i] >= v; v == boundary
	// should overflow into the next bucket (half-open intervals), so advance.
	if idx < len(h.boundaries) && h.boundaries[idx] == v {
		idx++
	}
	h.counts[idx]++
	h.total++
}

// Fractions returns each bucket's share of all observations, or all zeros
// when the histogram is empty.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int64 { return h.total }

// RunningMean accumulates a mean without storing samples.
type RunningMean struct {
	n   int64
	sum float64
}

// Add records one observation.
func (r *RunningMean) Add(v float64) {
	r.n++
	r.sum += v
}

// Mean returns the current mean, or 0 if nothing has been recorded.
func (r *RunningMean) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Count returns the number of observations recorded.
func (r *RunningMean) Count() int64 { return r.n }

// ILog2 returns floor(log2(x)) for x >= 1, and 0 for x == 0. It is used to
// size bit-width fields (e.g. recency needs log2(associativity) bits).
func ILog2(x uint64) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// CeilLog2 returns ceil(log2(x)) for x >= 1; 0 for x <= 1.
func CeilLog2(x uint64) int {
	if x <= 1 {
		return 0
	}
	n := ILog2(x)
	if uint64(1)<<n < x {
		n++
	}
	return n
}

// IsPow2 reports whether x is a power of two (x > 0).
func IsPow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }
