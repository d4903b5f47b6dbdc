package server

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/trace"
)

// lineSize is the synthetic line size of the tag store. Objects are
// variable-size; the tag store only needs a consistent address geometry for
// the policies, and 64 matches the geometry every policy was validated on.
const lineSize = 64

// entry is one cached object: the user key, the content ref, and the
// payload size charged against the shard's byte budget.
type entry struct {
	key  string
	ref  Ref
	size int64
}

// shardStats are the per-shard counters, guarded by the shard mutex and
// aggregated lock-by-lock into Snapshot.
type shardStats struct {
	Gets            uint64 `json:"gets"`
	GetHits         uint64 `json:"get_hits"`
	Puts            uint64 `json:"puts"`
	PutHits         uint64 `json:"put_hits"` // overwrite of a resident key
	Fills           uint64 `json:"fills"`
	Deletes         uint64 `json:"deletes"`
	Evictions       uint64 `json:"evictions"`        // conflict (set-full) evictions chosen by the policy
	BudgetEvictions uint64 `json:"budget_evictions"` // byte-budget evictions
	AdmitBypasses   uint64 `json:"admit_bypasses"`   // object too large for the admission bound
	PolicyBypasses  uint64 `json:"policy_bypasses"`  // policy's Victim returned Bypass
	Collisions      uint64 `json:"collisions"`       // distinct keys aliasing one 64-bit hash
	Bytes           int64  `json:"bytes"`
	Entries         int64  `json:"entries"`
}

// shard owns one slice of the synthetic set space: a private tag store, a
// private policy instance over that geometry, and a byte budget. Every
// method runs under the shard mutex, so policies — written for the
// single-threaded simulator — never see concurrent calls.
//
// Per-shard geometry: the server hashes a key to h and splits it as
//
//	shard     = h & (shards-1)          (low bits)
//	local set = (h >> log2(shards)) & (localSets-1)
//	tag       = the remaining high bits
//
// so the group of keys mapping to one *global* set (h mod totalSets) is
// identical for every shard count — shards only re-partition whole sets.
// Hit and eviction counts are therefore shard-count-invariant for policies
// whose state is per-set (lru, mru, srrip, cbr's counters...); policies
// with a global adaptive component (drrip's PSEL, ship's SHCT, hawkeye's
// predictor, cbr's PC table) keep that component shard-local, and their
// counts may drift slightly across shard counts. The determinism test pins
// the invariant class.
type shard struct {
	mu      sync.Mutex
	tags    *cache.Cache
	pol     policy.Policy
	entries map[uint64]*entry // synthetic block -> entry
	store   *Store
	idx     int // shard index (span/telemetry labeling)

	budget    int64 // byte budget for this shard
	maxObject int64 // admission bound: larger objects bypass
	bytes     int64
	seq       uint64 // policy-visible access sequence number
	cursor    uint32 // round-robin start set for budget evictions

	onEvict func(key string, size int64)
	stats   shardStats
	srv     *Server // back-pointer for the shared obs metrics

	// Telemetry (all nil when disabled; every call below is nil-safe).
	// win has its own mutex; the sketches are guarded by sh.mu.
	win      *obs.Window
	topMiss  *obs.TopK
	topEvict *obs.TopK
}

// putOutcome is what a Put did.
type putOutcome int

const (
	putStored   putOutcome = iota // filled a line (a miss-path insert)
	putUpdated                    // overwrote a resident key (hit path)
	putBypassed                   // admission or policy declined to cache
)

func newShard(srv *Server, idx, localSets, ways int, budget, maxObject int64, pol policy.Policy, store *Store, onEvict func(string, int64)) *shard {
	cfg := cache.Config{Sets: localSets, Ways: ways, LineSize: lineSize}
	sh := &shard{
		tags:      cache.New(cfg),
		pol:       pol,
		entries:   make(map[uint64]*entry),
		store:     store,
		idx:       idx,
		budget:    budget,
		maxObject: maxObject,
		onEvict:   onEvict,
		srv:       srv,
		win:       srv.cfg.Telemetry.newWindow(),
	}
	if k := srv.cfg.Telemetry.TopK; k > 0 {
		sh.topMiss, sh.topEvict = obs.NewTopK(k), obs.NewTopK(k)
	}
	pol.Init(policy.Config{Config: cfg, NumCores: 1})
	return sh
}

// access builds the policy-visible access record for a synthetic block.
// The PC travels from the client (X-PC header), so PC-correlating policies
// (ship, hawkeye) see the same signal they were designed around.
func (sh *shard) access(block, pc uint64, ty trace.AccessType) (policy.AccessCtx, uint32) {
	a := trace.Access{PC: pc, Addr: block * lineSize, Type: ty}
	ctx := policy.AccessCtx{Access: a, Seq: sh.seq}
	sh.seq++
	setIdx := sh.tags.SetIndex(a.Addr)
	ctx.SetIdx = setIdx
	return ctx, setIdx
}

// resolveCollision handles two distinct keys aliasing one 64-bit hash: the
// resident alias is dropped (it can no longer be addressed unambiguously)
// and the access proceeds as a miss. Vanishingly rare, but correctness
// must not depend on that.
func (sh *shard) resolveCollision(block uint64, e *entry) {
	sh.stats.Collisions++
	sh.dropEntry(block, e)
	sh.tags.Invalidate(block * lineSize)
}

// dropEntry removes e from the map and releases its bytes and content ref.
func (sh *shard) dropEntry(block uint64, e *entry) {
	delete(sh.entries, block)
	sh.bytes -= e.size
	sh.stats.Bytes = sh.bytes
	sh.stats.Entries--
	sh.store.Release(e.ref)
	sh.srv.gBytes.Add(-e.size)
}

// get looks the key up. On a hit it runs the full hit protocol — metadata
// update plus policy notification — and returns the payload. A miss does
// NOT touch the set: the miss protocol belongs to the fill, i.e. to the
// PUT the client issues next, so one logical miss ages the set exactly
// once, the same as one simulator Step.
//
// sp, nil except for sampled requests, charges the lock acquisition to
// PhaseLockWait and the blob fetch to PhaseStore; the telemetry calls are
// all nil-safe no-ops when the layer is off, so behaviour (and the policy
// decision sequence) is bit-identical either way.
func (sh *shard) get(key string, block, pc uint64, sp *obs.ActiveSpan) ([]byte, bool) {
	sp.Mark()
	sh.mu.Lock()
	sp.EndPhase(obs.PhaseLockWait)
	defer sh.mu.Unlock()
	sh.stats.Gets++
	setIdx, way, ok := sh.tags.Probe(block * lineSize)
	if ok {
		e := sh.entries[block]
		if e == nil || e.key != key {
			if e != nil {
				sh.resolveCollision(block, e)
			}
			sh.recordGetMiss(key)
			return nil, false
		}
		ctx, _ := sh.access(block, pc, trace.Load)
		sh.tags.RecordHit(setIdx, way, ctx.Access)
		sh.pol.Update(ctx, sh.tags.Set(setIdx), way, true)
		sh.stats.GetHits++
		sp.Mark()
		val := sh.store.Get(e.ref)
		sp.EndPhase(obs.PhaseStore)
		sh.win.RecordGet(true)
		return val, true
	}
	sh.recordGetMiss(key)
	return nil, false
}

// recordGetMiss feeds the windowed metrics and the miss heavy-hitter
// sketch. Caller holds sh.mu (the sketch is unsynchronized).
func (sh *shard) recordGetMiss(key string) {
	sh.win.RecordGet(false)
	sh.topMiss.Offer(key)
}

// put inserts or overwrites key. An overwrite of a resident key is the hit
// protocol plus a value swap; an insert is the simulator's miss path:
// RecordMissTouch, invalid way or policy victim, fill or bypass. After any
// growth the shard enforces its byte budget.
//
// Sampled spans charge lock acquisition to PhaseLockWait, policy victim
// selection (conflict and budget sweeps alike) to PhaseVictim, and blob
// writes to PhaseStore.
func (sh *shard) put(key string, block, pc uint64, val []byte, sp *obs.ActiveSpan) putOutcome {
	sp.Mark()
	sh.mu.Lock()
	sp.EndPhase(obs.PhaseLockWait)
	defer sh.mu.Unlock()
	sh.stats.Puts++
	size := int64(len(val))

	setIdx, way, ok := sh.tags.Probe(block * lineSize)
	if ok {
		e := sh.entries[block]
		if e != nil && e.key == key {
			ctx, _ := sh.access(block, pc, trace.RFO)
			sh.tags.RecordHit(setIdx, way, ctx.Access)
			sh.pol.Update(ctx, sh.tags.Set(setIdx), way, true)
			sh.stats.PutHits++
			sp.Mark()
			ref := sh.store.Put(val)
			sp.EndPhase(obs.PhaseStore)
			sh.store.Release(e.ref)
			sh.bytes += size - e.size
			sh.srv.gBytes.Add(size - e.size)
			e.ref, e.size = ref, size
			sh.stats.Bytes = sh.bytes
			sh.enforceBudget(sp)
			sh.win.RecordPut(false)
			return putUpdated
		}
		if e != nil {
			sh.resolveCollision(block, e)
		}
	}

	// Miss path. The set ages exactly once per miss, before admission and
	// victim selection, mirroring cachesim.Simulator.Step.
	ctx, _ := sh.access(block, pc, trace.RFO)
	sh.tags.RecordMissTouch(setIdx)

	if size > sh.maxObject || size > sh.budget {
		// Admission bypass: an object this large would wipe out a set's (or
		// the whole shard's) working set for one doubtful reuse. Cold-RL's
		// size-blind-LRU pathology is exactly this, so the bound is the
		// server's first-line admission hook.
		sh.stats.AdmitBypasses++
		sh.recordPutBypass()
		return putBypassed
	}

	set := sh.tags.Set(setIdx)
	way = sh.tags.InvalidWay(setIdx)
	if way < 0 {
		sp.Mark()
		way = sh.pol.Victim(ctx, set)
		sp.EndPhase(obs.PhaseVictim)
		if way == policy.Bypass {
			sh.stats.PolicyBypasses++
			sh.recordPutBypass()
			return putBypassed
		}
	}
	evicted, vblock := set.Lines[way].Valid, set.Lines[way].Block
	sh.tags.Fill(setIdx, way, ctx.Access)
	if evicted {
		if ve := sh.entries[vblock]; ve != nil {
			sh.evictEntry(vblock, ve)
			sh.stats.Evictions++
		}
	}
	sp.Mark()
	ref := sh.store.Put(val)
	sp.EndPhase(obs.PhaseStore)
	sh.entries[block] = &entry{key: key, ref: ref, size: size}
	sh.bytes += size
	sh.srv.gBytes.Add(size)
	sh.stats.Bytes = sh.bytes
	sh.stats.Entries++
	sh.stats.Fills++
	sh.pol.Update(ctx, set, way, false)
	sh.enforceBudget(sp)
	sh.win.RecordPut(true)
	return putStored
}

// recordPutBypass counts a declined PUT in the sliding window (as both a
// put and a bypass). Caller holds sh.mu.
func (sh *shard) recordPutBypass() {
	sh.win.RecordPut(false)
	sh.win.RecordBypass()
}

// evictEntry drops an evicted object, reports it to the observer, and
// feeds the eviction telemetry (window rate + heavy-hitter sketch).
func (sh *shard) evictEntry(block uint64, e *entry) {
	key, size := e.key, e.size
	sh.dropEntry(block, e)
	sh.win.RecordEvictions(1)
	sh.topEvict.Offer(key)
	if sh.onEvict != nil {
		sh.onEvict(key, size)
	}
}

// del removes key if resident. The policy is not notified — there is no
// invalidation verb in the policy interface — so the line simply becomes
// an invalid way that the next fill claims compulsorily, the same thing a
// coherence back-invalidation does to the simulator's cache.
func (sh *shard) del(key string, block uint64, sp *obs.ActiveSpan) bool {
	sp.Mark()
	sh.mu.Lock()
	sp.EndPhase(obs.PhaseLockWait)
	defer sh.mu.Unlock()
	e := sh.entries[block]
	if e == nil || e.key != key {
		return false
	}
	sh.dropEntry(block, e)
	sh.tags.Invalidate(block * lineSize)
	sh.stats.Deletes++
	return true
}

// enforceBudget evicts until resident bytes fit the shard budget. Victims
// come from a round-robin sweep over the sets starting at the cursor: a
// full set asks its policy (falling back to the LRU line if the policy
// declines), a partially-filled set gives up its LRU valid line directly —
// the policy contract only defines Victim over full sets. The cursor
// persists across calls so sustained pressure spreads over the whole
// shard instead of hammering set 0.
func (sh *shard) enforceBudget(sp *obs.ActiveSpan) {
	sets := uint32(sh.tags.Config().Sets)
	if sh.bytes <= sh.budget {
		return
	}
	sp.Mark()
	defer sp.EndPhase(obs.PhaseVictim)
	for sh.bytes > sh.budget {
		evicted := false
		for i := uint32(0); i < sets; i++ {
			si := (sh.cursor + i) % sets
			set := sh.tags.Set(si)
			way := -1
			if sh.tags.InvalidWay(si) < 0 {
				// Full set: the policy picks, with the same ctx a conflict
				// miss would carry minus the access (synthesize a neutral
				// one anchored at this set).
				ctx := policy.AccessCtx{
					Access: trace.Access{Addr: uint64(si) * lineSize, Type: trace.Writeback},
					Seq:    sh.seq,
					SetIdx: si,
				}
				way = sh.pol.Victim(ctx, set)
			}
			if way < 0 || way >= len(set.Lines) || !set.Lines[way].Valid {
				way = lruValidWay(set)
			}
			if way < 0 {
				continue // empty set
			}
			block := set.Lines[way].Block
			if e := sh.entries[block]; e != nil {
				sh.evictEntry(block, e)
				sh.stats.BudgetEvictions++
			}
			sh.tags.Invalidate(block * lineSize)
			sh.cursor = (si + 1) % sets
			evicted = true
			break
		}
		if !evicted {
			return // nothing left to evict
		}
	}
}

// lruValidWay returns the least-recently-used valid way of a (possibly
// partially filled) set, or -1 if the set is empty.
func lruValidWay(set *cache.Set) int {
	best := -1
	for w := range set.Lines {
		if !set.Lines[w].Valid {
			continue
		}
		if best < 0 || set.Lines[w].TouchedAt < set.Lines[best].TouchedAt {
			best = w
		}
	}
	return best
}

// snapshot copies the shard counters under the lock.
func (sh *shard) snapshot() shardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// topSnapshots copies both heavy-hitter sketches under the shard lock.
// Both are nil (and the snapshots empty) when sketches are disabled.
func (sh *shard) topSnapshots() (miss, evict []obs.TopKEntry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.topMiss.Snapshot(), sh.topEvict.Snapshot()
}
