// Package rl implements the reinforcement-learning half of the paper
// (§III): the Table II state featurizer, an experience-replay DQN agent
// whose MLP scores each way of the accessed set, the Belady-aligned reward,
// and the training loop over the LLC-only simulator. The trained network's
// input weights feed the Figure 3 heat map and the hill-climbing feature
// selection that yields RLR's feature set.
package rl

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Feature identifies one Table II feature (a heat-map row).
type Feature int

// The 18 Table II features, in heat-map row order.
const (
	FAccessOffset Feature = iota // lower 6 bits of accessed address
	FAccessPreuse                // set accesses since last access to this address
	FAccessType                  // one-hot LD/RFO/PF/WB

	FSetNumber          // accessed set index
	FSetAccesses        // total accesses to the set
	FSetAccessSinceMiss // accesses since the set's last miss

	FLineOffset    // 6 bits of the line address
	FLineDirty     // dirty bit
	FLinePreuse    // set accesses between the line's last two accesses
	FLineAgeInsert // set accesses since insertion
	FLineAgeAccess // set accesses since last access
	FLineLastType  // one-hot type of last access
	FLineLoadCount // LD accesses to the line
	FLineRFOCount  // RFO accesses
	FLinePFCount   // PF accesses
	FLineWBCount   // WB accesses
	FLineHits      // hits since insertion
	FLineRecency   // access order within the set

	NumFeatures
)

// String returns the feature's Table II name.
func (f Feature) String() string {
	names := [...]string{
		"access offset", "access preuse", "access type",
		"set number", "set accesses", "set accesses since miss",
		"line offset", "line dirty", "line preuse", "line age since insertion",
		"line age since last access", "line last access type",
		"line LD count", "line RFO count", "line PF count", "line WB count",
		"line hits since insertion", "line recency",
	}
	if f < 0 || int(f) >= len(names) {
		return fmt.Sprintf("Feature(%d)", int(f))
	}
	return names[f]
}

// FeatureSet is an enable mask over the Table II features (hill climbing
// trains agents with subsets enabled).
type FeatureSet [NumFeatures]bool

// AllFeatures returns a mask with every feature enabled.
func AllFeatures() FeatureSet {
	var fs FeatureSet
	for i := range fs {
		fs[i] = true
	}
	return fs
}

// With returns a copy of the set with f enabled.
func (s FeatureSet) With(f Feature) FeatureSet {
	s[f] = true
	return s
}

// normalization caps: numerical features are divided by their maximum
// plausible value and clamped to [0,1] (§III-A).
const (
	capPreuse = 256
	capAge    = 256
	capCount  = 16
	capSetAcc = 1 << 16
)

// Featurizer builds the §III-A state vector: access information, set
// information, and per-way line information, one-hot for categorical
// features, 6-bit binary for offsets, normalized fractions for counters.
// For a 16-way LLC the vector is 11 + 3 + 16×20 = 334 floats, the paper's
// input width.
type Featurizer struct {
	cfg     policy.Config
	enabled FeatureSet
}

// NewFeaturizer builds a featurizer for the given cache geometry and
// feature mask. Disabled features contribute zeros, keeping the vector
// width fixed so the same network architecture serves every mask.
func NewFeaturizer(cfg policy.Config, enabled FeatureSet) *Featurizer {
	return &Featurizer{cfg: cfg, enabled: enabled}
}

// VectorSize returns the state-vector width (334 for a 16-way cache).
func (f *Featurizer) VectorSize() int { return 11 + 3 + 20*f.cfg.Ways }

// accessPreuseProvider supplies the access-preuse feature (the simulator
// keeps the address history; see cachesim.Simulator.AccessPreuse).
type accessPreuseProvider interface {
	AccessPreuse(addr uint64) uint64
}

var _ accessPreuseProvider = (*cachesim.Simulator)(nil)

func norm(v, max float64) float64 {
	x := v / max
	if x > 1 {
		return 1
	}
	return x
}

// Build fills dst with the state vector for the access ctx against set.
// preuse is the access-preuse distance (cachesim.NeverAccessed when the
// address is new). dst must have VectorSize elements.
//
// The agent reads preuse inside Victim, after the simulator has counted
// the missing access in its set, so the value it passes is one more than
// the accesses-between count that the line-preuse feature (Line.Preuse)
// and the llc_reuse_distance histogram use. Trained models are fitted to
// that offset; normalizing it away would change every RL result.
func (f *Featurizer) Build(dst []float64, ctx policy.AccessCtx, set *cache.Set, preuse uint64) {
	if len(dst) != f.VectorSize() {
		panic(fmt.Sprintf("rl: state buffer %d, want %d", len(dst), f.VectorSize()))
	}
	for i := range dst {
		dst[i] = 0
	}
	pos := 0
	put := func(on bool, v float64) {
		if on {
			dst[pos] = v
		}
		pos++
	}
	bits6 := func(on bool, v uint64) {
		for b := 0; b < 6; b++ {
			put(on, float64((v>>uint(b))&1))
		}
	}
	oneHot4 := func(on bool, t trace.AccessType) {
		for k := trace.AccessType(0); k < trace.NumAccessTypes; k++ {
			var v float64
			if t == k {
				v = 1
			}
			put(on, v)
		}
	}

	// Access information (11).
	bits6(f.enabled[FAccessOffset], ctx.Addr&63)
	pv := 1.0
	if preuse != cachesim.NeverAccessed {
		pv = norm(float64(preuse), capPreuse)
	}
	put(f.enabled[FAccessPreuse], pv)
	oneHot4(f.enabled[FAccessType], ctx.Type)

	// Set information (3).
	put(f.enabled[FSetNumber], norm(float64(ctx.SetIdx), float64(f.cfg.Sets)))
	put(f.enabled[FSetAccesses], norm(float64(set.Accesses), capSetAcc))
	put(f.enabled[FSetAccessSinceMiss], norm(float64(set.AccessesSinceMiss), capPreuse))

	// In a direct-mapped cache (Ways == 1) recency is always 0; the
	// denominator must not collapse to 0, which would put NaN (0/0) into
	// the state vector and poison the network.
	recencyDen := float64(f.cfg.Ways - 1)
	if f.cfg.Ways <= 1 {
		recencyDen = 1
	}

	// Per-way line information (20 each).
	for w := 0; w < f.cfg.Ways; w++ {
		ln := &set.Lines[w]
		bits6(f.enabled[FLineOffset], (ln.Block)&63)
		var dirty float64
		if ln.Dirty {
			dirty = 1
		}
		put(f.enabled[FLineDirty], dirty)
		put(f.enabled[FLinePreuse], norm(float64(ln.Preuse), capPreuse))
		put(f.enabled[FLineAgeInsert], norm(float64(set.AgeSinceInsert(ln)), capAge))
		put(f.enabled[FLineAgeAccess], norm(float64(set.AgeSinceAccess(ln)), capAge))
		oneHot4(f.enabled[FLineLastType], ln.LastAccessType)
		put(f.enabled[FLineLoadCount], norm(float64(ln.LoadCount), capCount))
		put(f.enabled[FLineRFOCount], norm(float64(ln.RFOCount), capCount))
		put(f.enabled[FLinePFCount], norm(float64(ln.PrefetchCount), capCount))
		put(f.enabled[FLineWBCount], norm(float64(ln.WritebackCount), capCount))
		put(f.enabled[FLineHits], norm(float64(ln.HitsSinceInsert), capCount))
		put(f.enabled[FLineRecency], norm(float64(set.Recency(ln)), recencyDen))
	}
	if pos != len(dst) {
		panic(fmt.Sprintf("rl: featurizer filled %d of %d slots", pos, len(dst)))
	}
}

// FeatureSlots returns, for each Table II feature, the indices of the state
// vector it occupies — the mapping the Figure 3 heat map aggregates over
// (line features average across ways).
func (f *Featurizer) FeatureSlots() map[Feature][]int {
	out := make(map[Feature][]int, NumFeatures)
	pos := 0
	take := func(feat Feature, n int) {
		for i := 0; i < n; i++ {
			out[feat] = append(out[feat], pos)
			pos++
		}
	}
	take(FAccessOffset, 6)
	take(FAccessPreuse, 1)
	take(FAccessType, 4)
	take(FSetNumber, 1)
	take(FSetAccesses, 1)
	take(FSetAccessSinceMiss, 1)
	for w := 0; w < f.cfg.Ways; w++ {
		take(FLineOffset, 6)
		take(FLineDirty, 1)
		take(FLinePreuse, 1)
		take(FLineAgeInsert, 1)
		take(FLineAgeAccess, 1)
		take(FLineLastType, 4)
		take(FLineLoadCount, 1)
		take(FLineRFOCount, 1)
		take(FLinePFCount, 1)
		take(FLineWBCount, 1)
		take(FLineHits, 1)
		take(FLineRecency, 1)
	}
	return out
}
