// intervals.go: turn window signatures into a weighted set of
// representative intervals and evaluate an arbitrary replacement policy
// over just those intervals.
package intervals

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Config parameterizes representative-interval selection.
type Config struct {
	// Window is the interval size in accesses.
	Window int
	// K is the number of clusters (and therefore representatives). It is
	// clamped to the number of windows.
	K int
	// Seed drives the (deterministic) k-means++ initialization.
	Seed uint64
	// Iters bounds the Lloyd iterations; 0 means a sensible default.
	Iters int
	// LineSize and Sets give the cache geometry the signatures are
	// computed against — use the geometry you will simulate with.
	LineSize uint64
	Sets     int
}

// DefaultIters is the Lloyd-iteration bound used when Config.Iters is 0.
const DefaultIters = 32

// Representative is one selected interval: the window whose signature is
// closest to its cluster centroid, weighted by the cluster's share of all
// windows.
type Representative struct {
	Window  int     // window index in the original trace
	Start   uint64  // first access of the window
	N       uint64  // accesses in the window
	Weight  float64 // cluster size / total windows
	Cluster int     // cluster this window represents
}

// Selection is the outcome of representative-interval selection.
type Selection struct {
	Window     int // interval size in accesses
	NumWindows int // total windows in the trace
	Reps       []Representative
	// Assign maps every window to its cluster (index parallel to windows).
	Assign []int
}

// SimulatedAccesses returns the number of accesses the representative
// evaluation will actually simulate, excluding warmup.
func (s Selection) SimulatedAccesses() uint64 {
	var n uint64
	for _, r := range s.Reps {
		n += r.N
	}
	return n
}

// Select fingerprints src, clusters the windows, and picks one weighted
// representative per cluster. The same (src, cfg) always yields the same
// selection.
func Select(src trace.FrameSource, cfg Config) (Selection, error) {
	if cfg.K <= 0 {
		return Selection{}, fmt.Errorf("intervals: K must be positive, got %d", cfg.K)
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = DefaultIters
	}
	sigs, err := ComputeSignatures(src, SignatureConfig{
		Window:   cfg.Window,
		LineSize: cfg.LineSize,
		Sets:     cfg.Sets,
	})
	if err != nil {
		return Selection{}, err
	}
	if len(sigs) == 0 {
		return Selection{Window: cfg.Window}, nil
	}

	vecs := make([][]float64, len(sigs))
	for i := range sigs {
		vecs[i] = sigs[i].Vec
	}
	centroids, assign := kmeans(vecs, cfg.K, cfg.Seed, iters)

	// Per cluster: size and the member closest to the centroid.
	type clusterPick struct {
		size   int
		best   int
		bestD  float64
		filled bool
	}
	picks := make([]clusterPick, len(centroids))
	for i, c := range assign {
		picks[c].size++
		d := dist2(vecs[i], centroids[c])
		if !picks[c].filled || d < picks[c].bestD {
			picks[c] = clusterPick{size: picks[c].size, best: i, bestD: d, filled: true}
		}
	}

	sel := Selection{Window: cfg.Window, NumWindows: len(sigs), Assign: assign}
	total := float64(len(sigs))
	for c, p := range picks {
		if !p.filled {
			continue // empty cluster (k was clamped or rescue folded it)
		}
		s := sigs[p.best]
		sel.Reps = append(sel.Reps, Representative{
			Window:  s.Window,
			Start:   s.Start,
			N:       uint64(s.N),
			Weight:  float64(p.size) / total,
			Cluster: c,
		})
	}
	// Deterministic, replay-friendly order.
	sort.Slice(sel.Reps, func(i, j int) bool { return sel.Reps[i].Window < sel.Reps[j].Window })
	return sel, nil
}

// RepResult is the outcome of evaluating one policy over a selection.
type RepResult struct {
	// HitRate is the weighted hit rate: each representative's hit rate
	// weighted by its cluster's share of the trace.
	HitRate float64
	// Simulated counts the accesses actually stepped through the cache,
	// including warmup.
	Simulated uint64
	// PerRep holds each representative's measured stats in Reps order.
	PerRep []cachesim.Stats
}

// EvaluateRepresentatives runs a fresh policy instance over each selected
// interval and returns the weighted hit rate. The warmup accesses
// immediately preceding each window are replayed first (unmeasured) so the
// cache and policy state are realistic when measurement starts; warmup is
// clamped at the start of the trace. Each representative gets its own
// simulator so intervals are independent and order does not matter.
func EvaluateRepresentatives(ccfg cache.Config, newPolicy func() policy.Policy, src trace.FrameSource, sel Selection, warmup uint64) (RepResult, error) {
	var res RepResult
	var wsum float64
	for _, r := range sel.Reps {
		sim := cachesim.New(ccfg, 1, newPolicy())
		w := min(warmup, r.Start)
		st, err := sim.RunRange(src, r.Start-w, r.N+w, w)
		if err != nil {
			return RepResult{}, err
		}
		res.Simulated += st.Accesses + w
		res.PerRep = append(res.PerRep, st)
		if st.Accesses > 0 {
			res.HitRate += r.Weight * st.HitRate()
			wsum += r.Weight
		}
	}
	if wsum > 0 {
		res.HitRate /= wsum
	}
	return res, nil
}
