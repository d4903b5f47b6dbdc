// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every experiment in this repository must be exactly reproducible from a
// seed, across Go versions and platforms. The standard library's math/rand
// makes no such cross-version guarantee for its global functions, so the
// simulator uses these explicit generators instead: SplitMix64 for seeding
// and cheap stateless streams, and Xoshiro256** as the general-purpose
// workhorse.
package xrand

import (
	"math"
	"sync"
)

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea and Flood.
// It is primarily used to expand a single user seed into the larger state
// required by Xoshiro, and as a cheap per-entity hash-like stream.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one SplitMix64 round. It is useful as a stateless
// way to derive independent sub-seeds: Mix64(seed^streamID).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a Xoshiro256** generator. The zero value is not valid; construct
// with New.
type Rand struct {
	s [4]uint64
}

// New returns a Xoshiro256** generator seeded from seed via SplitMix64,
// following the reference seeding procedure.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// Xoshiro must not be seeded with all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, so r.s is already valid.
	return &r
}

// State returns the generator's full internal state, for checkpointing.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State. It panics on
// the all-zero state, which Xoshiro cannot escape (and which New can never
// produce), so a zeroed checkpoint buffer fails loudly instead of yielding
// a generator that emits zeros forever.
func (r *Rand) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("xrand: SetState with all-zero state")
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice of ints.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success.
// It panics unless 0 < p <= 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Zipf draws from a bounded Zipf distribution over [0, n) with exponent s,
// using inverted CDF search over precomputed weights. For hot/cold data
// footprints this matches the skew of real workloads far better than a
// uniform draw. The CDF depends only on (n, s), so NewZipf builds it once
// per process and every Zipf of that shape shares it read-only; each Zipf
// draws from its own Rand. Sampling is O(log n).
type Zipf struct {
	cdf []float64 // shared with every Zipf of the same (n, s); never written
	r   *Rand
}

type zipfKey struct {
	n int
	s float64
}

// zipfTables holds every CDF built so far, for the life of the process.
// Generators are built from many goroutines, so the map is locked; a
// table is built under the lock, so each shape is built exactly once.
var (
	zipfMu     sync.Mutex
	zipfTables = map[zipfKey][]float64{}
)

// NewZipf constructs a Zipf sampler over [0, n) with exponent s >= 0, using
// r as the entropy source. s = 0 degenerates to uniform.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	return &Zipf{cdf: zipfCDF(n, s), r: r}
}

// zipfCDF returns the shared CDF for (n, s), building it on first use.
func zipfCDF(n int, s float64) []float64 {
	zipfMu.Lock()
	defer zipfMu.Unlock()
	if cdf, ok := zipfTables[zipfKey{n, s}]; ok {
		return cdf
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	zipfTables[zipfKey{n, s}] = cdf
	return cdf
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
