// Package cache implements the set-associative cache container shared by
// the LLC-only simulator and the timing simulator's cache levels.
//
// Beyond tags and validity, every line carries the complete per-line feature
// set of the paper's Table II (ages, preuse distance, per-type access
// counters, hits since insertion, recency, dirty bit, last access type), and
// every set carries the set-level counters (total accesses, accesses since
// the last miss). These are exactly the inputs the RL agent consumes and the
// statistics the insight analyses of §III-B aggregate.
//
// A line's ages and recency are not stored as counters: the line keeps the
// set's access count at its insertion and last access, and the set's
// promotion clock at its last promotion, and the Set methods AgeSinceInsert,
// AgeSinceAccess, Recency and LRUWay derive the Table II values from those
// stamps. An access therefore writes only the line it touches, never the
// rest of its set.
//
// Replacement policies that would be implemented with their own dedicated
// hardware state (e.g. RLR's quantized 2-bit age counters) deliberately do
// NOT read this metadata; they maintain their own faithful-width state and
// use this container only for tags and victim mechanics.
package cache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/mathx"
	"repro/internal/trace"
)

// Config describes a single cache's geometry.
type Config struct {
	Sets     int    // number of sets; must be a power of two
	Ways     int    // associativity
	LineSize uint64 // line size in bytes; must be a power of two
}

// Validate returns an error if the configuration is not usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || !mathx.IsPow2(uint64(c.Sets)) {
		return fmt.Errorf("cache: Sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways must be positive, got %d", c.Ways)
	}
	// Recency ranks 0..Ways-1 are reported in 8 bits (the victim recency
	// of obs.CacheEvent); a wider set would silently truncate them.
	if c.Ways > 256 {
		return fmt.Errorf("cache: Ways must fit the 8-bit recency rank (<= 256), got %d", c.Ways)
	}
	if c.LineSize == 0 || !mathx.IsPow2(c.LineSize) {
		return fmt.Errorf("cache: LineSize must be a positive power of two, got %d", c.LineSize)
	}
	return nil
}

// Line is one cache line plus its Table II metadata. All "age"-like values
// are measured in set accesses, matching the paper's definitions; the ages
// and the recency rank are derived from the stamps by the Set methods. The
// fields are ordered widest first so a Line packs into 88 bytes.
type Line struct {
	Tag      uint64 // block address >> log2(sets) — unique within a set
	Block    uint64 // full block address (byte address >> log2(lineSize))
	InsertPC uint64 // PC of the inserting access (for PC-based policies)
	LastPC   uint64 // PC of the most recent access

	InsertedAt uint64 // the set's Accesses when the line was inserted
	AccessedAt uint64 // the set's Accesses at the line's most recent access
	TouchedAt  uint64 // the set's Clock at the line's last promotion (higher = more recent)

	// Table II per-line counters.
	Preuse          uint32 // set accesses between the last two accesses of this line
	LoadCount       uint32 // number of LD accesses to this line since insertion
	RFOCount        uint32 // number of RFO accesses since insertion
	PrefetchCount   uint32 // number of PF accesses since insertion
	WritebackCount  uint32 // number of WB accesses since insertion
	HitsSinceInsert uint32 // hits since insertion

	Valid          bool
	Dirty          bool
	LastAccessType trace.AccessType // type of the line's most recent access
	Core           uint8            // core that inserted / last accessed the line
}

// Set is one cache set with its set-level counters.
type Set struct {
	Lines             []Line
	Accesses          uint64 // total accesses to this set
	AccessesSinceMiss uint64 // accesses since the last miss to this set
	Misses            uint64 // total misses to this set
	Clock             uint64 // promotion clock: the next TouchedAt to hand out
	valid             int    // valid lines; Fill, Invalidate and LoadState keep it
}

// saturate clamps a stamp difference to the 32-bit width of the Table II
// age counters, which saturate rather than wrap.
func saturate(d uint64) uint32 {
	if d > uint64(counterMax) {
		return counterMax
	}
	return uint32(d)
}

// AgeSinceInsert returns the set accesses since ln was inserted, saturating
// at 2^32-1. ln is a line of s, or a victim copy read before s's next
// access.
func (s *Set) AgeSinceInsert(ln *Line) uint32 { return saturate(s.Accesses - ln.InsertedAt) }

// AgeSinceAccess returns the set accesses since ln was last accessed,
// saturating at 2^32-1, with the same aliasing rule as AgeSinceInsert.
func (s *Set) AgeSinceAccess(ln *Line) uint32 { return saturate(s.Accesses - ln.AccessedAt) }

// Recency returns ln's position in the set's recency order: 0 = least
// recently used … Ways-1 = most recently used. The order runs over every
// way, valid or not. A victim copy keeps its rank until s's next access:
// the fill that replaced it took a newer stamp than every other line.
func (s *Set) Recency(ln *Line) int {
	r := 0
	for w := range s.Lines {
		if s.Lines[w].TouchedAt < ln.TouchedAt {
			r++
		}
	}
	return r
}

// ValidLines returns the number of valid lines in the set.
func (s *Set) ValidLines() int { return s.valid }

// LRUWay returns the least recently used way of the set, valid or not.
func (s *Set) LRUWay() int {
	best, bestAt := 0, s.Lines[0].TouchedAt
	for w := 1; w < len(s.Lines); w++ {
		if at := s.Lines[w].TouchedAt; at < bestAt {
			best, bestAt = w, at
		}
	}
	return best
}

// Cache is a single set-associative cache. It implements only content and
// metadata bookkeeping; hit/miss policy, timing, and replacement decisions
// belong to its callers.
type Cache struct {
	cfg      Config
	sets     []Set
	setShift uint // log2(lineSize)
	tagShift uint // log2(lineSize) + log2(sets)
	setMask  uint64
}

// New constructs a cache. It panics on an invalid configuration, since a
// bad geometry is a programming error, not a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([]Set, cfg.Sets),
		setShift: uint(mathx.ILog2(cfg.LineSize)),
		tagShift: uint(mathx.ILog2(cfg.LineSize) + mathx.ILog2(uint64(cfg.Sets))),
		setMask:  uint64(cfg.Sets - 1),
	}
	for i := range c.sets {
		s := &c.sets[i]
		s.Lines = make([]Line, cfg.Ways)
		s.initStamps()
	}
	return c
}

// Reset restores the exact state New leaves: every line zeroed and
// invalid, every set counter zero, and the initial recency order. A
// caller that replays many traces on one geometry reuses one cache
// instead of allocating a new one per replay.
func (c *Cache) Reset() {
	for i := range c.sets {
		s := &c.sets[i]
		lines := s.Lines
		clear(lines)
		*s = Set{Lines: lines}
		s.initStamps()
	}
}

// initStamps gives the ways of a set with no accesses yet their initial
// recency order.
func (s *Set) initStamps() {
	for w := range s.Lines {
		s.Lines[w].TouchedAt = uint64(w) // arbitrary initial total order
	}
	s.Clock = uint64(len(s.Lines))
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr returns the block address (byte address / line size).
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr >> c.setShift }

// SetIndex returns the set index of a byte address.
func (c *Cache) SetIndex(addr uint64) uint32 {
	return uint32((addr >> c.setShift) & c.setMask)
}

// tagOf returns the within-set tag of a byte address.
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.tagShift
}

// Set returns the set at index idx. The returned pointer aliases internal
// state; callers must not resize the Lines slice or write a line's Valid
// bit, which the set's valid-line count follows.
func (c *Cache) Set(idx uint32) *Set { return &c.sets[idx] }

// Probe reports whether addr is present, returning its set and way; it
// updates no metadata and reads each way's tag before its valid bit.
func (c *Cache) Probe(addr uint64) (setIdx uint32, way int, hit bool) {
	setIdx = c.SetIndex(addr)
	tag := c.tagOf(addr)
	for w := range c.sets[setIdx].Lines {
		ln := &c.sets[setIdx].Lines[w]
		if ln.Tag == tag && ln.Valid {
			return setIdx, w, true
		}
	}
	return setIdx, -1, false
}

const counterMax = ^uint32(0)

func satInc(v *uint32) {
	if *v != counterMax {
		*v++
	}
}

// promote makes ln the most recently used line of s.
func (s *Set) promote(ln *Line) {
	ln.TouchedAt = s.Clock
	s.Clock++
}

// RecordHit applies the full metadata protocol for a hit of access a at
// (setIdx, way): the set's access count advances, the hit line's preuse is
// captured from its age since last access, its counters and recency
// update. It writes no other line. It returns the preuse distance observed
// on this hit (the value the RLR RD predictor accumulates on demand hits).
func (c *Cache) RecordHit(setIdx uint32, way int, a trace.Access) (preuse uint32) {
	s := &c.sets[setIdx]
	s.Accesses++
	s.AccessesSinceMiss++
	ln := &s.Lines[way]
	// The age counts this access too; the paper counts the accesses
	// *between* the two accesses, which excludes it.
	preuse = s.AgeSinceAccess(ln) - 1
	ln.Preuse = preuse
	ln.AccessedAt = s.Accesses
	satInc(&ln.HitsSinceInsert)
	ln.LastAccessType = a.Type
	ln.LastPC = a.PC
	ln.Core = a.Core
	switch a.Type {
	case trace.Load:
		satInc(&ln.LoadCount)
	case trace.RFO:
		satInc(&ln.RFOCount)
	case trace.Prefetch:
		satInc(&ln.PrefetchCount)
	case trace.Writeback:
		satInc(&ln.WritebackCount)
	}
	if a.Type == trace.RFO || a.Type == trace.Writeback {
		ln.Dirty = true
	}
	s.promote(ln)
	return preuse
}

// RecordMissTouch applies the set-level bookkeeping for a miss (the access
// count advances, accesses-since-miss resets) without filling anything.
// Call it exactly once per miss, before victim selection, whether or not
// the miss is ultimately bypassed.
func (c *Cache) RecordMissTouch(setIdx uint32) {
	s := &c.sets[setIdx]
	s.Accesses++
	s.AccessesSinceMiss = 0
	s.Misses++
}

// InvalidWay returns the lowest-index invalid way of the set, or -1 when
// the set is full, which the set's valid-line count tells without a scan.
func (c *Cache) InvalidWay(setIdx uint32) int {
	s := &c.sets[setIdx]
	if s.valid == len(s.Lines) {
		return -1
	}
	for w := range s.Lines {
		if !s.Lines[w].Valid {
			return w
		}
	}
	return -1
}

// Fill installs the block of access a into (setIdx, way), evicting whatever
// was there. Callers that need the victim (its dirty bit, block or Table II
// fields) read it in place at Set(setIdx).Lines[way] before the fill; its
// ages and recency read the same then as against the set after the fill.
func (c *Cache) Fill(setIdx uint32, way int, a trace.Access) {
	s := &c.sets[setIdx]
	ln := &s.Lines[way]
	if !ln.Valid {
		s.valid++
	}
	// Clear, then set field by field: a composite literal would be built
	// in a temporary and copied over the line.
	*ln = Line{}
	ln.Valid = true
	ln.Tag = c.tagOf(a.Addr)
	ln.Block = c.BlockAddr(a.Addr)
	ln.Dirty = a.Type == trace.RFO || a.Type == trace.Writeback
	ln.LastAccessType = a.Type
	ln.Core = a.Core
	ln.InsertPC, ln.LastPC = a.PC, a.PC
	ln.InsertedAt, ln.AccessedAt = s.Accesses, s.Accesses
	switch a.Type {
	case trace.Load:
		ln.LoadCount = 1
	case trace.RFO:
		ln.RFOCount = 1
	case trace.Prefetch:
		ln.PrefetchCount = 1
	case trace.Writeback:
		ln.WritebackCount = 1
	}
	s.promote(ln)
}

// Invalidate removes the block containing addr if present and reports
// whether it was resident.
func (c *Cache) Invalidate(addr uint64) bool {
	setIdx, way, hit := c.Probe(addr)
	if hit {
		c.sets[setIdx].Lines[way].Valid = false
		c.sets[setIdx].valid--
	}
	return hit
}

// SaveState serializes the cache's complete contents — every line with its
// Table II metadata and stamps plus the per-set counters and clock — so a
// checkpointed simulation can resume with bit-identical cache state. The geometry itself
// is not stored; LoadState requires a cache of matching Config.
func (c *Cache) SaveState(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if err := binary.Write(bw, le, uint64(c.cfg.Sets)); err != nil {
		return err
	}
	if err := binary.Write(bw, le, uint64(c.cfg.Ways)); err != nil {
		return err
	}
	for i := range c.sets {
		s := &c.sets[i]
		if err := binary.Write(bw, le, s.Accesses); err != nil {
			return err
		}
		if err := binary.Write(bw, le, s.AccessesSinceMiss); err != nil {
			return err
		}
		if err := binary.Write(bw, le, s.Misses); err != nil {
			return err
		}
		if err := binary.Write(bw, le, s.Clock); err != nil {
			return err
		}
		if err := binary.Write(bw, le, s.Lines); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadState restores contents saved with SaveState into this cache, whose
// geometry must match the one the state was saved from. It reads exactly
// the bytes SaveState wrote (no read-ahead), so it can sit mid-stream in a
// larger checkpoint; callers wanting buffering pass a buffered reader.
func (c *Cache) LoadState(r io.Reader) error {
	le := binary.LittleEndian
	var sets64, ways64 uint64
	if err := binary.Read(r, le, &sets64); err != nil {
		return err
	}
	if err := binary.Read(r, le, &ways64); err != nil {
		return err
	}
	if int(sets64) != c.cfg.Sets || int(ways64) != c.cfg.Ways {
		return fmt.Errorf("cache: state geometry %dx%d does not match cache %dx%d",
			sets64, ways64, c.cfg.Sets, c.cfg.Ways)
	}
	for i := range c.sets {
		s := &c.sets[i]
		if err := binary.Read(r, le, &s.Accesses); err != nil {
			return err
		}
		if err := binary.Read(r, le, &s.AccessesSinceMiss); err != nil {
			return err
		}
		if err := binary.Read(r, le, &s.Misses); err != nil {
			return err
		}
		if err := binary.Read(r, le, &s.Clock); err != nil {
			return err
		}
		if err := binary.Read(r, le, s.Lines); err != nil {
			return err
		}
		s.valid = 0
		for w := range s.Lines {
			if s.Lines[w].Valid {
				s.valid++
			}
		}
	}
	return nil
}

// Stats aggregates occupancy over the whole cache (used by tests and the
// example binaries).
type Stats struct {
	ValidLines int
	DirtyLines int
	Accesses   uint64
	Misses     uint64
}

// Stats scans the cache and returns aggregate occupancy numbers.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.sets {
		st.Accesses += c.sets[i].Accesses
		st.Misses += c.sets[i].Misses
		st.ValidLines += c.sets[i].valid
		for w := range c.sets[i].Lines {
			if c.sets[i].Lines[w].Valid && c.sets[i].Lines[w].Dirty {
				st.DirtyLines++
			}
		}
	}
	return st
}
