// Package policy defines the replacement-policy interface shared by both
// simulators and implements every baseline the paper evaluates against:
// LRU, Random, SRRIP/BRRIP/DRRIP, SHiP, SHiP++, Hawkeye, KPC-R, PDP, EVA,
// and the Belady oracle. The paper's own policy (RLR) lives in
// internal/core and plugs into the same interface.
//
// The interface follows the ChampSim CRC2 contract: the framework resolves
// hits and fills; a policy is consulted for a victim only when the set is
// full, and is notified (Update) on every hit and every fill so it can
// maintain its own state. Policies may read the framework-maintained
// per-line metadata (tags, recency, ages) through the *cache.Set they are
// handed; policies whose hardware cost is part of the evaluation (RLR)
// instead maintain their own faithful-width state.
package policy

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Bypass is returned by Victim to indicate the access should not be cached.
const Bypass = -1

// Config describes the cache a policy instance manages.
type Config struct {
	cache.Config
	NumCores int // number of cores sharing this cache (>= 1)
}

// setRows returns one row of cfg.Ways values per set, each set to fill,
// carved from one sets×ways slab so that a policy's per-set state is two
// objects, not one per set.
func setRows[T any](cfg Config, fill T) [][]T {
	slab := make([]T, cfg.Sets*cfg.Ways)
	for i := range slab {
		slab[i] = fill
	}
	rows := make([][]T, cfg.Sets)
	for i := range rows {
		rows[i] = slab[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return rows
}

// AccessCtx carries one LLC access plus the simulator-provided context a
// policy may need: the global access sequence number (used by the Belady
// oracle) and the set index.
type AccessCtx struct {
	trace.Access
	Seq    uint64 // 0-based index of this access in the LLC stream
	SetIdx uint32
}

// Policy is a cache replacement policy.
type Policy interface {
	// Name returns a short identifier (e.g. "lru", "drrip", "rlr").
	Name() string
	// Init prepares the policy for a cache of the given geometry. It is
	// called once before any other method and may be called again to reset.
	Init(cfg Config)
	// Victim selects the way to evict from a full set, or Bypass. The set's
	// lines are all valid when Victim is called.
	Victim(ctx AccessCtx, set *cache.Set) int
	// Update notifies the policy of a hit (hit=true, way = hit way) or of a
	// fill (hit=false, way = filled way). On fills the set's line at way
	// already holds the newly inserted block.
	Update(ctx AccessCtx, set *cache.Set, way int, hit bool)
}

// Factory creates a fresh policy instance.
type Factory func() Policy

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes a policy constructor available by name. It panics on
// duplicate registration, which indicates an init-order bug.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New returns a fresh instance of the named policy or an error listing the
// known names.
func New(name string) (Policy, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
	}
	return f(), nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(name string) Policy {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the sorted list of registered policy names.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InvariantChecker is optionally implemented by policies that can audit
// their own internal state. CheckInvariants returns nil when every
// policy-internal invariant holds (RRPV within its counter width, SHCT and
// predictor counters within their saturation bounds, PSEL in range, …) and
// a descriptive error otherwise. The simulator's invariant checker calls it
// after every access when enabled; implementations must not allocate on the
// passing path.
type InvariantChecker interface {
	CheckInvariants() error
}
