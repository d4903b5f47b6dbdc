// Package cachesim implements the LLC-only trace-driven simulator of
// §III-A: it replays an LLC access trace against a single set-associative
// cache whose replacement decisions come from any policy.Policy (including
// the RL agent and the Belady oracle), maintaining the full Table II
// feature state and producing the hit-rate and eviction statistics that the
// paper's Figures 1 and 4–7 are built from.
//
// This is the counterpart of the paper's Python simulator; the timing
// simulator (internal/uarch) is the counterpart of ChampSim.
package cachesim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"sync"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Stats aggregates the outcome of a simulation.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Bypasses uint64

	DemandAccesses uint64 // loads + RFOs
	DemandHits     uint64
	DemandMisses   uint64

	AccessesByType [trace.NumAccessTypes]uint64
	HitsByType     [trace.NumAccessTypes]uint64

	Evictions      uint64
	DirtyEvictions uint64
	// InvalidFills counts misses that filled an invalid way without
	// asking the policy for a victim. It is not the compulsory-miss count:
	// a first touch to a block whose set is full is an eviction.
	InvalidFills uint64
}

// HitRate returns hits/accesses as a percentage (the Figure 1 metric).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 100 * float64(s.Hits) / float64(s.Accesses)
}

// DemandHitRate returns the demand (LD+RFO) hit percentage.
func (s Stats) DemandHitRate() float64 {
	if s.DemandAccesses == 0 {
		return 0
	}
	return 100 * float64(s.DemandHits) / float64(s.DemandAccesses)
}

// StepResult describes what one access did.
type StepResult struct {
	SetIdx   uint32
	Way      int // hit way, filled way, or -1 when bypassed
	Hit      bool
	Bypassed bool
	Victim   cache.Line // valid only when an eviction occurred
	Evicted  bool
	Seq      uint64 // sequence number assigned to this access
}

// NeverAccessed marks an access whose block has not been touched before
// (no preuse distance exists).
const NeverAccessed = ^uint64(0)

// Simulator replays accesses against one cache under one policy. Its
// access-preuse history exists only for a reader (see TrackAccessPreuse);
// with or without it, every access has the same outcome.
type Simulator struct {
	c     *cache.Cache
	p     policy.Policy
	cfg   policy.Config
	seq   uint64
	stats Stats
	// preuse maps block → set-access count at the block's last reference;
	// it implements the "access preuse" feature of Table II. It is nil
	// unless something reads it (see TrackAccessPreuse).
	preuse *preuseTable

	// Invariant checking (see invariants.go): off by default, enabled per
	// simulator with EnableInvariants or build-wide with -tags simcheck.
	inv       bool
	selfCheck policy.InvariantChecker

	// Observability (all nil by default and in tests: the hot path then
	// pays only nil checks and keeps its zero-allocation guarantee). The
	// hook is picked up from obs.GlobalHook at construction; the metrics
	// are resolved from the registry only when obs.Enable() ran before
	// New.
	hook    obs.Hook
	ev      obs.CacheEvent // scratch event, reused across emissions
	mAcc    *obs.Counter
	mHits   *obs.Counter
	mMisses *obs.Counter
	mBypass *obs.Counter
	mEvict  *obs.Counter // llc_evictions_by_policy{policy=...}
	hReuse  *obs.Histogram
	hOccupy *obs.Histogram
}

// New builds a simulator over a fresh cache of geometry cfg governed by p.
// It calls p.Init. The access-preuse history is kept only if obs metrics
// are on (the llc_reuse_distance histogram reads it); a policy that reads
// AccessPreuse registers with TrackAccessPreuse before the first Step.
func New(cfg cache.Config, numCores int, p policy.Policy) *Simulator {
	return newOnCache(cache.New(cfg), numCores, p)
}

// newOnCache builds a simulator over c, which must be in the state
// cache.New leaves (fresh, or Reset).
func newOnCache(c *cache.Cache, numCores int, p policy.Policy) *Simulator {
	if numCores < 1 {
		numCores = 1
	}
	s := &Simulator{
		c:   c,
		p:   p,
		cfg: policy.Config{Config: c.Config(), NumCores: numCores},
	}
	p.Init(s.cfg)
	if invariantsDefault {
		s.EnableInvariants()
	}
	s.hook = obs.GlobalHook()
	if m := obs.Metrics(); m != nil {
		s.mAcc = m.Counter("llc_accesses")
		s.mHits = m.Counter("llc_hits")
		s.mMisses = m.Counter("llc_misses")
		s.mBypass = m.Counter("llc_bypasses")
		s.mEvict = m.Counter(`llc_evictions_by_policy{policy="` + p.Name() + `"}`)
		s.hReuse = m.Histogram("llc_reuse_distance")
		s.hOccupy = m.Histogram("llc_set_occupancy_at_miss")
		s.TrackAccessPreuse()
	}
	return s
}

// TrackAccessPreuse makes the simulator keep the access-preuse history
// that AccessPreuse reads. Call it before the first Step (or right after
// LoadState); repeated calls are no-ops. Calling it for the first time
// after the simulator has stepped panics: the history would be missing
// every earlier access, so AccessPreuse would read too many blocks as
// NeverAccessed.
func (s *Simulator) TrackAccessPreuse() {
	if s.preuse != nil {
		return
	}
	if s.seq != 0 {
		panic("cachesim: TrackAccessPreuse after the simulator has stepped")
	}
	s.preuse = newPreuseTable(s.cfg.Sets * s.cfg.Ways)
}

// emit streams one event through the hook, reusing the scratch record; the
// caller has pre-filled the victim fields when kind is obs.EvEvict.
func (s *Simulator) emit(kind obs.EventKind, a trace.Access, seq uint64, setIdx uint32, way int) {
	s.ev.Kind = kind
	s.ev.Seq = seq
	s.ev.PC = a.PC
	s.ev.Addr = a.Addr
	s.ev.Type = uint8(a.Type)
	s.ev.Set = setIdx
	s.ev.Way = way
	s.ev.Policy = s.p.Name()
	s.hook.OnCacheEvent(&s.ev)
	s.ev.VictimBlock, s.ev.VictimDirty = 0, false
	s.ev.VictimAge, s.ev.VictimPreuse, s.ev.VictimHits = 0, 0, 0
	s.ev.VictimRecency, s.ev.VictimLastType = 0, 0
}

// Cache exposes the underlying cache (for analyses).
func (s *Simulator) Cache() *cache.Cache { return s.c }

// Stats returns a copy of the accumulated statistics.
func (s *Simulator) Stats() Stats { return s.stats }

// AccessPreuse returns the set's accesses counted since the block's last
// reference in its set, or NeverAccessed. This is the Table II "access
// preuse" feature. Blocks displaced from the bounded history table (see
// preuseTable) also read as NeverAccessed.
//
// Read between accesses, it is the number of accesses between the block's
// last reference and the next one — the same count as Line.Preuse and the
// llc_reuse_distance histogram. Read from a policy's Victim, it is one
// more: Step has already counted the current miss in the set
// (RecordMissTouch) before it asks for a victim.
//
// It panics unless TrackAccessPreuse was called: a reader that never
// registered would otherwise read NeverAccessed for every block.
func (s *Simulator) AccessPreuse(addr uint64) uint64 {
	if s.preuse == nil {
		panic("cachesim: AccessPreuse without TrackAccessPreuse")
	}
	last, ok := s.preuse.lookup(s.c.BlockAddr(addr))
	if !ok {
		return NeverAccessed
	}
	return uint64(uint32(s.c.Set(s.c.SetIndex(addr)).Accesses) - last)
}

// Step processes one access end to end: probe, metadata update, policy
// notification, and (on a miss) victim selection and fill.
//
// A miss reads its victim in place, before the fill replaces it, and
// copies it once, into res.Victim. The result is named so that each
// return writes it in place rather than copying the whole StepResult.
func (s *Simulator) Step(a trace.Access) (res StepResult) {
	ctx := policy.AccessCtx{Access: a, Seq: s.seq}
	res.Seq = s.seq
	s.seq++

	setIdx, way, hit := s.c.Probe(a.Addr)
	ctx.SetIdx = setIdx
	res.SetIdx = setIdx
	set := s.c.Set(setIdx)

	s.stats.Accesses++
	s.stats.AccessesByType[a.Type]++
	if a.Type.IsDemand() {
		s.stats.DemandAccesses++
	}
	s.mAcc.Inc()
	if s.hReuse != nil {
		if d := s.AccessPreuse(a.Addr); d != NeverAccessed {
			s.hReuse.Observe(d)
		}
	}

	if hit {
		s.stats.Hits++
		s.stats.HitsByType[a.Type]++
		if a.Type.IsDemand() {
			s.stats.DemandHits++
		}
		s.c.RecordHit(setIdx, way, a)
		s.p.Update(ctx, set, way, true)
		res.Way, res.Hit = way, true
		s.touch(set, a.Addr)
		s.mHits.Inc()
		if s.hook != nil {
			s.emit(obs.EvHit, a, res.Seq, setIdx, way)
		}
		if s.inv {
			s.checkStep(a, res, victimNotAsked)
		}
		return res
	}

	s.stats.Misses++
	if a.Type.IsDemand() {
		s.stats.DemandMisses++
	}
	s.c.RecordMissTouch(setIdx)
	s.mMisses.Inc()
	if s.hOccupy != nil {
		s.hOccupy.Observe(uint64(set.ValidLines()))
	}
	if s.hook != nil {
		s.emit(obs.EvMiss, a, res.Seq, setIdx, -1)
	}

	way = s.c.InvalidWay(setIdx)
	rawVictim := victimNotAsked
	if way < 0 {
		way = s.p.Victim(ctx, set)
		rawVictim = way
		if s.inv {
			s.checkVictim(a, way)
		}
	} else {
		s.stats.InvalidFills++
	}
	if way == policy.Bypass {
		s.stats.Bypasses++
		res.Way, res.Bypassed = -1, true
		s.touch(set, a.Addr)
		s.mBypass.Inc()
		if s.hook != nil {
			s.emit(obs.EvBypass, a, res.Seq, setIdx, -1)
		}
		if s.inv {
			s.checkStep(a, res, rawVictim)
		}
		return res
	}
	if victim := &set.Lines[way]; victim.Valid {
		s.stats.Evictions++
		if victim.Dirty {
			s.stats.DirtyEvictions++
		}
		res.Victim = *victim
		res.Evicted = true
		s.mEvict.Inc()
		if s.hook != nil {
			s.ev.VictimBlock = victim.Block
			s.ev.VictimDirty = victim.Dirty
			s.ev.VictimAge = set.AgeSinceInsert(victim)
			s.ev.VictimPreuse = victim.Preuse
			s.ev.VictimHits = victim.HitsSinceInsert
			s.ev.VictimRecency = uint8(set.Recency(victim))
			s.ev.VictimLastType = uint8(victim.LastAccessType)
		}
	}
	s.c.Fill(setIdx, way, a)
	s.p.Update(ctx, set, way, false)
	res.Way = way
	s.touch(set, a.Addr)
	if s.hook != nil {
		if res.Evicted {
			s.emit(obs.EvEvict, a, res.Seq, setIdx, way)
		}
		s.emit(obs.EvFill, a, res.Seq, setIdx, way)
	}
	if s.inv {
		s.checkStep(a, res, rawVictim)
	}
	return res
}

// touch records the block's reference for access-preuse tracking: one
// bounded probe-table store, no allocation, no sweep; nothing when the
// history is not kept.
func (s *Simulator) touch(set *cache.Set, addr uint64) {
	if s.preuse != nil {
		s.preuse.store(s.c.BlockAddr(addr), uint32(set.Accesses), uint32(s.seq))
	}
}

// SaveState serializes the simulator's replay position, statistics, cache
// contents, and access-preuse history (an empty one when the simulator
// does not keep it) so a checkpointed replay can resume mid-trace with
// bit-identical behaviour. Policy-internal state is not included; it is
// the caller's job to snapshot the governing policy (the RL trainer
// serializes its agent alongside).
func (s *Simulator) SaveState(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if err := binary.Write(bw, le, s.seq); err != nil {
		return err
	}
	if err := binary.Write(bw, le, &s.stats); err != nil {
		return err
	}
	if err := s.c.SaveState(bw); err != nil {
		return err
	}
	if s.preuse == nil {
		if err := binary.Write(bw, le, uint64(0)); err != nil {
			return err
		}
	} else if err := s.preuse.save(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadState restores state saved with SaveState into this simulator, which
// must have been built with the same cache geometry. A saved history makes
// the simulator keep one; a simulator that keeps one refuses state saved
// without it.
func (s *Simulator) LoadState(r io.Reader) error {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	if err := binary.Read(br, le, &s.seq); err != nil {
		return err
	}
	if err := binary.Read(br, le, &s.stats); err != nil {
		return err
	}
	if err := s.c.LoadState(br); err != nil {
		return err
	}
	var n uint64
	if err := binary.Read(br, le, &n); err != nil {
		return err
	}
	if n == 0 {
		if s.preuse != nil {
			return errors.New("cachesim: state has no access-preuse history, but this simulator keeps one")
		}
		return nil
	}
	if s.preuse == nil {
		s.preuse = newPreuseTable(s.cfg.Sets * s.cfg.Ways)
	}
	return s.preuse.load(br, n)
}

// Run replays every access and returns the final statistics.
func (s *Simulator) Run(accesses []trace.Access) Stats {
	for _, a := range accesses {
		s.Step(a)
	}
	return s.stats
}

// RunPolicy is a convenience: build a simulator for cfg/p, replay
// accesses, and return the statistics. The statistics are those of
// New(cfg, 1, p).Run(accesses), but the simulator runs on a reset cache
// from the free list, so back-to-back replays on one geometry allocate no
// cache.
func RunPolicy(cfg cache.Config, p policy.Policy, accesses []trace.Access) Stats {
	c := pooledCache(cfg)
	defer releaseCache(c)
	return newOnCache(c, 1, p).Run(accesses)
}

// freeCaches holds caches that RunPolicy and RunFramesPolicy have finished
// with. Each replay pops one and pushes one back, so the list never holds
// more caches than replays ever ran at once, and unlike a sync.Pool it
// keeps them across GC cycles and for every P. It keeps no geometry index:
// a popped cache of another Config is dropped, so a caller that alternates
// geometries allocates a cache per replay.
var freeCaches struct {
	sync.Mutex
	list []*cache.Cache
}

// pooledCache returns a cache of geometry cfg in the state cache.New
// leaves, reusing the most recently released one when its geometry
// matches.
func pooledCache(cfg cache.Config) *cache.Cache {
	freeCaches.Lock()
	var c *cache.Cache
	if n := len(freeCaches.list); n > 0 {
		c = freeCaches.list[n-1]
		freeCaches.list[n-1] = nil
		freeCaches.list = freeCaches.list[:n-1]
	}
	freeCaches.Unlock()
	if c != nil && c.Config() == cfg {
		c.Reset()
		return c
	}
	return cache.New(cfg)
}

// releaseCache returns a cache taken with pooledCache to the free list.
func releaseCache(c *cache.Cache) {
	freeCaches.Lock()
	freeCaches.list = append(freeCaches.list, c)
	freeCaches.Unlock()
}
