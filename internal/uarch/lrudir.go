package uarch

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/trace"
)

// lruDir is a private level's tag directory: true LRU over at most 16
// ways of 64-byte lines (Table III's L1I, L1D and L2). It holds only what
// those levels read — tags, dirty bits, validity and recency — and none
// of the Table II line features, which only the LLC's policy consumes.
//
// Each set's recency order is a stack of 4-bit way ids packed into one
// uint64: nibble 0 is the least recently used way and nibble ways-1 the
// most recently used; nibbles at and above ways stay zero. A new set's
// stack is 0..ways-1 from the bottom, the order cache.Cache's initial
// stamps give, and every hit or fill moves its way to the top, as a new
// stamp does, so the LRU way is the one cache.Set.LRUWay would pick.
type lruDir struct {
	keys  []uint64 // set-major: block+1 for a valid way, 0 for an invalid one
	dirty []bool   // set-major, like keys
	valid []uint16 // per set: bit w set while way w is valid
	stack []uint64 // per set: the recency stack of way ids
	ways  int
	top   uint   // bit offset of the MRU nibble: 4*(ways-1)
	full  uint16 // the valid mask of a full set
	mask  uint64 // sets-1
}

// nibbles has a 1 in every nibble; nibbleTops has each nibble's top bit.
const (
	nibbles    = 0x1111111111111111
	nibbleTops = 0x8888888888888888
)

// newLRUDir builds an empty directory; NewHierarchy has checked that cfg
// has at most 16 ways of 64-byte lines.
func newLRUDir(cfg cache.Config) lruDir {
	var initial uint64
	for w := cfg.Ways - 1; w >= 0; w-- {
		initial = initial<<4 | uint64(w)
	}
	d := lruDir{
		keys:  make([]uint64, cfg.Sets*cfg.Ways),
		dirty: make([]bool, cfg.Sets*cfg.Ways),
		valid: make([]uint16, cfg.Sets),
		stack: make([]uint64, cfg.Sets),
		ways:  cfg.Ways,
		top:   uint(4 * (cfg.Ways - 1)),
		full:  uint16(1<<cfg.Ways - 1),
		mask:  uint64(cfg.Sets - 1),
	}
	for s := range d.stack {
		d.stack[s] = initial
	}
	return d
}

// probe returns addr's set and, when its block is resident, its way.
func (d *lruDir) probe(addr uint64) (set uint32, way int, hit bool) {
	block := addr >> 6
	set = uint32(block & d.mask)
	base := int(set) * d.ways
	for w, k := range d.keys[base : base+d.ways] {
		if k == block+1 {
			return set, w, true
		}
	}
	return set, -1, false
}

// promote records a hit of an access of type ty on (set, way): the way
// becomes the most recently used, and an RFO or writeback marks it dirty.
func (d *lruDir) promote(set uint32, way int, ty trace.AccessType) {
	if ty == trace.RFO || ty == trace.Writeback {
		d.dirty[int(set)*d.ways+way] = true
	}
	d.stack[set] = d.toTop(d.stack[set], way)
}

// toTop returns stack with way moved to the MRU nibble. The way's nibble
// is the lowest zero nibble of stack^(way in every nibble), which the SWAR
// zero-nibble test flags exactly (no borrow reaches it; higher flags may
// be false). below masks the nibbles under it, which stay; the nibbles
// above it shift down by one.
func (d *lruDir) toTop(stack uint64, way int) uint64 {
	x := stack ^ uint64(way)*nibbles
	below := (x - nibbles) &^ x & nibbleTops
	below = (below ^ (below - 1)) >> 4
	return stack&below | stack>>4&^below | uint64(way)<<d.top
}

// fill installs addr's block in set as its most recently used line: in the
// lowest invalid way, or else in the LRU way. An RFO or writeback fill is
// dirty. It returns the victim's block when the victim was valid and dirty.
func (d *lruDir) fill(set uint32, addr uint64, ty trace.AccessType) (victim uint64, dirty bool) {
	stack := d.stack[set]
	way := int(stack & 0xF)
	if v := d.valid[set]; v != d.full {
		way = bits.TrailingZeros16(^v)
	}
	i := int(set)*d.ways + way
	victim, dirty = d.keys[i]-1, d.keys[i] != 0 && d.dirty[i]
	d.keys[i] = addr>>6 + 1
	d.dirty[i] = ty == trace.RFO || ty == trace.Writeback
	d.valid[set] |= 1 << way
	d.stack[set] = d.toTop(stack, way)
	return victim, dirty
}
