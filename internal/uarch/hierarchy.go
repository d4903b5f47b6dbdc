package uarch

import (
	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

// LLCObserver is called for every LLC access the hierarchy performs; the
// trace-generation path (§III-A) and the experiment stats both hang off it.
type LLCObserver func(a trace.Access, hit bool)

// level is one private cache level (L1I, L1D, or L2) with LRU replacement
// (Table III) and an MSHR-style in-flight timing table.
type level struct {
	c       *cache.Cache
	latency uint64
	mshr    mshrTable
}

func newLevel(cfg cache.Config, latency uint64, mshrs int) *level {
	return &level{c: cache.New(cfg), latency: latency, mshr: newMSHRTable(mshrs)}
}

// mshrTable maps an in-flight block to its ready time. Entries sit in an
// unordered dense slab, and low is a lower bound on every entry's ready
// time: the pressure sweep scans the slab only when some entry may have
// completed (low <= now), and recomputes low exactly from the survivors.
// Removals leave low alone, since it stays a lower bound. A flat
// open-addressed index (linear probing, backward-shift deletion) finds a
// block's slab entry. The sweep and clear rules in insert keep at most
// 4*bound entries, so both arrays are sized once and nothing allocates
// afterwards.
type mshrTable struct {
	bound int
	slab  []mshrEntry // unordered; len(slab) is the entry count
	low   uint64      // a lower bound on every entry's ready time
	index []mshrSlot  // len is a power of two, at least twice the capacity
	shift uint        // 64 - log2(len(index))
}

type mshrEntry struct {
	ready uint64
	slot  uint32 // this entry's position in index
}

type mshrSlot struct {
	key uint64 // block+1; 0 marks an empty slot
	pos uint32 // this block's position in slab
}

func newMSHRTable(bound int) mshrTable {
	capacity := max(4*bound, 1)
	size, shift := 2, uint(63)
	for size < 2*capacity {
		size, shift = 2*size, shift-1
	}
	return mshrTable{
		bound: bound,
		slab:  make([]mshrEntry, 0, capacity),
		low:   ^uint64(0),
		index: make([]mshrSlot, size),
		shift: shift,
	}
}

// lookup returns the in-flight ready time for addr's block, if any. An
// entry that has completed (ready <= now) is dropped and reported absent.
func (t *mshrTable) lookup(addr, now uint64) (uint64, bool) {
	i, ok := t.find(addr>>6 + 1)
	if !ok {
		return 0, false
	}
	pos := t.index[i].pos
	ready := t.slab[pos].ready
	if ready <= now {
		t.remove(pos)
		return 0, false
	}
	return ready, true
}

// insert records an in-flight miss for addr's block. Once the table holds
// bound entries, each insert first drops every completed entry (ready <=
// now); if 4*bound or more entries are still in flight after that, the
// table is cleared.
func (t *mshrTable) insert(addr, now, ready uint64) {
	if len(t.slab) >= t.bound && t.low <= now {
		t.low = ^uint64(0)
		for pos := 0; pos < len(t.slab); {
			if r := t.slab[pos].ready; r > now {
				t.low = min(t.low, r)
				pos++
			} else {
				t.remove(uint32(pos))
			}
		}
	}
	if len(t.slab) >= 4*t.bound {
		for _, e := range t.slab {
			t.index[e.slot].key = 0
		}
		t.slab = t.slab[:0]
		t.low = ^uint64(0)
	}
	t.low = min(t.low, ready)
	key := addr>>6 + 1
	i, ok := t.find(key)
	if ok {
		t.slab[t.index[i].pos].ready = ready
		return
	}
	t.index[i] = mshrSlot{key: key, pos: uint32(len(t.slab))}
	t.slab = append(t.slab, mshrEntry{ready: ready, slot: i})
}

// find returns key's index slot, or the empty slot where it would go.
func (t *mshrTable) find(key uint64) (uint32, bool) {
	mask := uint32(len(t.index) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.index[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// home is key's preferred index slot (Fibonacci hashing).
func (t *mshrTable) home(key uint64) uint32 {
	return uint32(key * 0x9E3779B97F4A7C15 >> t.shift)
}

// remove deletes the entry at slab position pos, moving the last entry
// into its place.
func (t *mshrTable) remove(pos uint32) {
	t.unindex(t.slab[pos].slot)
	last := uint32(len(t.slab) - 1)
	if pos < last {
		e := t.slab[last]
		t.slab[pos] = e
		t.index[e.slot].pos = pos
	}
	t.slab = t.slab[:last]
}

// unindex empties index slot i, shifting later entries of its probe run
// back so every key stays reachable from its home slot.
func (t *mshrTable) unindex(i uint32) {
	mask := uint32(len(t.index) - 1)
	for j := (i + 1) & mask; t.index[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.index[j].key))&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			t.slab[t.index[i].pos].slot = i
			i = j
		}
	}
	t.index[i].key = 0
}

// LLCStats aggregates LLC behaviour during a timing run.
type LLCStats struct {
	Accesses     uint64
	Hits         uint64
	DemandHits   uint64
	DemandMisses uint64
	ByType       [trace.NumAccessTypes]uint64
	HitsByType   [trace.NumAccessTypes]uint64
}

// Hierarchy is the full Table III memory system: per-core L1I/L1D/L2 over a
// shared LLC whose replacement policy is pluggable.
type Hierarchy struct {
	cfg    Config
	l1i    []*level
	l1d    []*level
	l2     []*level
	l2pf   []Prefetcher
	kpcp   []*KPCP // non-nil when the L2 prefetcher is KPC-P
	llc    *level
	pol    policy.Policy
	llcSeq uint64

	observer LLCObserver
	stats    LLCStats
}

// NewHierarchy builds the memory system. The policy is Init-ed against the
// LLC geometry. pol may be nil, which selects LRU.
func NewHierarchy(cfg Config, pol policy.Policy) *Hierarchy {
	if pol == nil {
		pol = policy.MustNew("lru")
	}
	h := &Hierarchy{cfg: cfg, pol: pol}
	for c := 0; c < cfg.Cores; c++ {
		h.l1i = append(h.l1i, newLevel(cfg.L1I, cfg.L1ILatency, cfg.MSHRs))
		h.l1d = append(h.l1d, newLevel(cfg.L1D, cfg.L1DLatency, cfg.MSHRs))
		h.l2 = append(h.l2, newLevel(cfg.L2, cfg.L2Latency, cfg.MSHRs))
		pf := newPrefetcher(cfg.L2Prefetcher)
		h.l2pf = append(h.l2pf, pf)
		if k, ok := pf.(*KPCP); ok {
			h.kpcp = append(h.kpcp, k)
		} else {
			h.kpcp = append(h.kpcp, nil)
		}
	}
	h.llc = newLevel(cfg.LLC, cfg.LLCLatency, cfg.MSHRs*cfg.Cores)
	pol.Init(policy.Config{Config: cfg.LLC, NumCores: cfg.Cores})
	return h
}

// SetLLCObserver installs fn on the LLC access path (nil to remove).
func (h *Hierarchy) SetLLCObserver(fn LLCObserver) { h.observer = fn }

// KPCPFor returns the core's KPC-P engine, or nil when another prefetcher
// is configured. KPC-R wires its Confidence callback through this.
func (h *Hierarchy) KPCPFor(core int) *KPCP { return h.kpcp[core] }

// accessLLC performs one LLC access, driving the replacement policy and
// the observer, and returns the completion time.
func (h *Hierarchy) accessLLC(core int, pc, addr uint64, ty trace.AccessType, now uint64) uint64 {
	a := trace.Access{PC: pc, Addr: addr, Type: ty, Core: uint8(core)}
	ctx := policy.AccessCtx{Access: a, Seq: h.llcSeq}
	h.llcSeq++

	setIdx, way, hit := h.llc.c.Probe(addr)
	ctx.SetIdx = setIdx
	set := h.llc.c.Set(setIdx)

	h.stats.Accesses++
	h.stats.ByType[ty]++
	if h.observer != nil {
		h.observer(a, hit)
	}

	if hit {
		h.stats.Hits++
		h.stats.HitsByType[ty]++
		if ty.IsDemand() {
			h.stats.DemandHits++
		}
		h.llc.c.RecordHit(setIdx, way, a)
		h.pol.Update(ctx, set, way, true)
		return now + h.llc.latency
	}
	if ty != trace.Writeback {
		// Merged miss: the block is already being fetched. The access
		// counts (and the observer has fired), but it must not re-drive
		// the replacement policy or re-count the demand miss — one
		// outstanding fetch performs exactly one fill.
		if ready, ok := h.llc.mshr.lookup(addr, now); ok {
			return ready
		}
	}
	if ty.IsDemand() {
		h.stats.DemandMisses++
	}
	h.llc.c.RecordMissTouch(setIdx)

	done := now + h.llc.latency
	if ty != trace.Writeback {
		// Fetch from memory (writeback misses allocate without a read:
		// the evicted L2 line carries the full data).
		done = now + h.llc.latency + h.cfg.DRAMLatency
		h.llc.mshr.insert(addr, now, done)
	}

	way = h.llc.c.InvalidWay(setIdx)
	if way < 0 {
		way = h.pol.Victim(ctx, set)
	}
	if way == policy.Bypass {
		return done
	}
	h.llc.c.Fill(setIdx, way, a)
	h.pol.Update(ctx, set, way, false)
	return done
}

// accessL2 performs one L2 access for a demand request (load/RFO) or an L1
// prefetch escalation, returning the completion time.
func (h *Hierarchy) accessL2(core int, pc, addr uint64, ty trace.AccessType, now uint64) uint64 {
	l2 := h.l2[core]
	setIdx, way, hit := l2.c.Probe(addr)

	// Train the L2 prefetcher on demand traffic and issue its prefetches.
	if ty.IsDemand() {
		for _, pa := range h.l2pf[core].OnAccess(pc, addr, hit) {
			h.issueL2Prefetch(core, pc, pa, now)
		}
	}

	if hit {
		a := trace.Access{PC: pc, Addr: addr, Type: ty, Core: uint8(core)}
		l2.c.RecordHit(setIdx, way, a)
		return now + l2.latency
	}

	var done uint64
	if ready, ok := l2.mshr.lookup(addr, now); ok {
		done = ready
	} else {
		done = h.accessLLC(core, pc, addr, ty, now+l2.latency)
		l2.mshr.insert(addr, now, done)
	}
	h.fillLevel(core, l2, addr, pc, ty)
	return done
}

// fillLevel installs addr into the level (LRU victim) and cascades a dirty
// victim as a writeback to the next level down.
func (h *Hierarchy) fillLevel(core int, l *level, addr, pc uint64, ty trace.AccessType) {
	a := trace.Access{PC: pc, Addr: addr, Type: ty, Core: uint8(core)}
	setIdx, _, hit := l.c.Probe(addr)
	if hit {
		return
	}
	l.c.RecordMissTouch(setIdx)
	way := l.c.InvalidWay(setIdx)
	if way < 0 {
		way = l.c.Set(setIdx).LRUWay()
	}
	victim := &l.c.Set(setIdx).Lines[way]
	dirty, block := victim.Valid && victim.Dirty, victim.Block
	l.c.Fill(setIdx, way, a)
	if dirty {
		h.writeback(core, l, block)
	}
}

// writeback sends a dirty victim block from level l to the next level down.
func (h *Hierarchy) writeback(core int, from *level, block uint64) {
	addr := block << 6
	switch from {
	case h.l1d[core]:
		// L1D victim → L2: hit marks dirty, miss allocates (data is a full
		// line; no fetch needed), possibly cascading.
		l2 := h.l2[core]
		if setIdx, way, hit := l2.c.Probe(addr); hit {
			l2.c.RecordHit(setIdx, way, trace.Access{Addr: addr, Type: trace.Writeback, Core: uint8(core)})
			return
		}
		h.fillLevel(core, l2, addr, 0, trace.Writeback)
	case h.l2[core]:
		// L2 victim → LLC writeback access (the WB type the paper's traces
		// record). Timing is off the critical path.
		h.accessLLC(core, 0, addr, trace.Writeback, 0)
	}
}

// issueL2Prefetch brings addr toward L2 (and always at least into the LLC,
// as KPC does): it charges no core latency.
func (h *Hierarchy) issueL2Prefetch(core int, pc, addr uint64, now uint64) {
	l2 := h.l2[core]
	if _, _, hit := l2.c.Probe(addr); hit {
		return
	}
	if _, ok := l2.mshr.lookup(addr, now); ok {
		return // already in flight
	}
	done := h.accessLLC(core, pc, addr, trace.Prefetch, now+l2.latency)
	l2.mshr.insert(addr, now, done)
	if h.kpcp[core] != nil && !h.kpcp[core].FillL2(addr) {
		return // KPC-P pollution gate: low confidence stays out of L2
	}
	h.fillLevel(core, l2, addr, pc, trace.Prefetch)
}

// AccessData performs a data-side access (load or store) from the core,
// returning the completion time. Next-line L1 prefetching is driven here.
func (h *Hierarchy) AccessData(core int, pc, addr uint64, store bool, now uint64) uint64 {
	l1 := h.l1d[core]
	ty := trace.Load
	if store {
		ty = trace.RFO
	}
	a := trace.Access{PC: pc, Addr: addr, Type: ty, Core: uint8(core)}
	setIdx, way, hit := l1.c.Probe(addr)

	if h.cfg.L1NextLine {
		for _, pa := range (NextLine{}).OnAccess(pc, addr, hit) {
			h.issueL1Prefetch(core, pc, pa, now)
		}
	}

	if hit {
		// RecordHit marks the line dirty for RFO accesses.
		l1.c.RecordHit(setIdx, way, a)
		return now + l1.latency
	}
	var done uint64
	if ready, ok := l1.mshr.lookup(addr, now); ok {
		done = ready
	} else {
		done = h.accessL2(core, pc, addr, ty, now+l1.latency)
		l1.mshr.insert(addr, now, done)
	}
	h.fillLevel(core, l1, addr, pc, ty)
	return done
}

// issueL1Prefetch brings addr into L1D via the normal path, charging no
// core latency.
func (h *Hierarchy) issueL1Prefetch(core int, pc, addr uint64, now uint64) {
	l1 := h.l1d[core]
	if _, _, hit := l1.c.Probe(addr); hit {
		return
	}
	if _, ok := l1.mshr.lookup(addr, now); ok {
		return
	}
	done := h.accessL2(core, pc, addr, trace.Prefetch, now+l1.latency)
	l1.mshr.insert(addr, now, done)
	h.fillLevel(core, l1, addr, pc, trace.Prefetch)
}

// AccessInstr performs an instruction-fetch access, returning completion.
func (h *Hierarchy) AccessInstr(core int, pc uint64, now uint64) uint64 {
	l1 := h.l1i[core]
	a := trace.Access{PC: pc, Addr: pc, Type: trace.Load, Core: uint8(core)}
	setIdx, way, hit := l1.c.Probe(pc)
	if hit {
		l1.c.RecordHit(setIdx, way, a)
		return now + l1.latency
	}
	var done uint64
	if ready, ok := l1.mshr.lookup(pc, now); ok {
		done = ready
	} else {
		done = h.accessL2(core, pc, pc, trace.Load, now+l1.latency)
		l1.mshr.insert(pc, now, done)
	}
	h.fillLevel(core, l1, pc, pc, trace.Load)
	return done
}
