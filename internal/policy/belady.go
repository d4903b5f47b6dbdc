package policy

import (
	"math"

	"repro/internal/cache"
	"repro/internal/trace"
)

// NeverUsed is the next-use distance reported for a block with no future
// reference.
const NeverUsed = math.MaxUint64

// Oracle provides perfect future knowledge over a fixed LLC access trace:
// for any block and any position in the trace, the index of the block's
// next reference. It backs the Belady policy and the RL reward function
// (§III-A), mirroring the paper's Python simulator, which looks ahead in
// the trace for both.
//
// Its one data structure is a precomputed next-use chain: next[i] is the
// index of access i's next same-block reference. NextAfter, for callers
// that know the access index, is a single chain read. NextUse/NextUseBlock
// answer for any block from a replay cursor that walks the chain and keeps
// each block's next reference: a simulator walking the trace with
// non-decreasing sequence numbers pays one map read per query, amortized.
// A query behind the cursor rewinds it to the start of the trace and walks
// forward again, so random-access queries get the same answers but cost
// O(seq). The cursor's map is built on the first cursor query (or
// ResetReplay/SeekReplay), so an oracle read only through NextAfter, as
// the Belady policy reads it, never holds one.
//
// The cursor makes NextUse/NextUseBlock stateful: an Oracle must not be
// queried from multiple goroutines concurrently. NextAfter and Len touch
// only immutable state and remain safe to share.
type Oracle struct {
	next   []uint64 // next[i] = index of access i's next same-block reference, or NeverUsed
	blocks []uint64 // blocks[i] = block address of access i
	firsts []uint64 // index of each distinct block's first reference
	shift  uint     // addr >> shift = block address
	length uint64

	// Replay cursor: head[b] = index of block b's first reference at or
	// after pos, or NeverUsed once b's references are all consumed. head
	// is nil until the first cursor query.
	pos  uint64
	head map[uint64]uint64
}

// NewOracle scans accesses once and builds the next-use chain. lineSize
// must match the cache the trace will be replayed against.
func NewOracle(accesses []trace.Access, lineSize uint64) *Oracle {
	shift := uint(0)
	for l := lineSize; l > 1; l >>= 1 {
		shift++
	}
	n := len(accesses)
	o := &Oracle{
		next:   make([]uint64, n),
		blocks: make([]uint64, n),
		shift:  shift,
		length: uint64(n),
	}
	for i, a := range accesses {
		o.blocks[i] = a.Addr >> shift
	}
	// One backward pass builds the chain; the scratch map ends up holding
	// every block's first occurrence, which ResetReplay turns back into
	// the cursor's initial head state.
	head := make(map[uint64]uint64)
	for i := n - 1; i >= 0; i-- {
		b := o.blocks[i]
		if nx, ok := head[b]; ok {
			o.next[i] = nx
		} else {
			o.next[i] = NeverUsed
		}
		head[b] = uint64(i)
	}
	o.firsts = make([]uint64, 0, len(head))
	for _, i := range head {
		o.firsts = append(o.firsts, i)
	}
	return o
}

// NextUse returns the index of the first reference to addr's block strictly
// after seq, or NeverUsed.
func (o *Oracle) NextUse(addr uint64, seq uint64) uint64 {
	return o.NextUseBlock(addr>>o.shift, seq)
}

// NextUseBlock is NextUse keyed directly by block address.
func (o *Oracle) NextUseBlock(block uint64, seq uint64) uint64 {
	if o.head == nil || seq+1 < o.pos {
		o.ResetReplay() // behind the cursor: rewind and walk forward
	}
	// Consume the trace through seq so head holds each block's first
	// reference strictly after seq. Amortized O(1) per trace access
	// regardless of how many queries land on each seq.
	for o.pos <= seq && o.pos < o.length {
		o.head[o.blocks[o.pos]] = o.next[o.pos]
		o.pos++
	}
	if h, ok := o.head[block]; ok {
		return h
	}
	return NeverUsed
}

// NextAfter returns the index of the next reference to the block touched by
// access seq, or NeverUsed — a single chain read. It is read-only and safe
// for concurrent use.
func (o *Oracle) NextAfter(seq uint64) uint64 {
	if seq >= o.length {
		return NeverUsed
	}
	return o.next[seq]
}

// ResetReplay rewinds the in-order cursor to the start of the trace. Call
// it before replaying the same trace again (e.g. a new training epoch);
// NextUseBlock also calls it for a query behind the cursor, and the first
// cursor query calls it to build the cursor's map.
func (o *Oracle) ResetReplay() {
	o.pos = 0
	if o.head == nil {
		o.head = make(map[uint64]uint64, len(o.firsts))
	}
	for _, i := range o.firsts {
		o.head[o.blocks[i]] = i
	}
}

// SeekReplay positions the in-order cursor as if the trace had been
// replayed through access pos-1: head holds, for every block, its first
// reference at index >= pos. Checkpoint resume uses it to rebuild the
// cursor state deterministically instead of serializing the head map; the
// resulting state answers every subsequent in-order query identically to a
// cursor that advanced organically to any position <= pos (queries only
// ever look forward).
func (o *Oracle) SeekReplay(pos uint64) {
	if o.head == nil || pos < o.pos {
		o.ResetReplay()
	}
	if pos > o.length {
		pos = o.length
	}
	for o.pos < pos {
		o.head[o.blocks[o.pos]] = o.next[o.pos]
		o.pos++
	}
}

// Len returns the trace length the oracle was built from.
func (o *Oracle) Len() uint64 { return o.length }

// NextUseChain is the read-only future-knowledge interface the chain-driven
// Belady replay consumes: for the access at seq, the index of the next
// reference to the same block (or NeverUsed). *Oracle implements it.
type NextUseChain interface {
	// NextAfter returns the index of the next reference to the block
	// touched by access seq, or NeverUsed.
	NextAfter(seq uint64) uint64
	// Len returns the trace length the chain was built from.
	Len() uint64
}

// Belady implements the optimal replacement policy: evict the line whose
// next use lies farthest in the future. With bypass enabled, an access
// whose own next use is farther than every resident line's is not cached
// at all — the true MIN algorithm.
//
// The replay is chain-driven: Update records each touched line's next
// reference index (one array read via Oracle.NextAfter), so Victim scans a
// flat per-set row without consulting the oracle at all. This requires the
// replayed access stream to be the oracle's own trace, in order — the same
// assumption the RL reward has always made. The victim scan uses a strict
// greater-than, so equal candidates resolve to the lowest way: distinct
// resident blocks can never share a finite next-use index (each trace
// position references one block), and the NeverUsed case short-circuits to
// the first dead line found — also the lowest way.
type Belady struct {
	oracle      NextUseChain
	AllowBypass bool
	// nextUse[set][way] = trace index of the line's next reference,
	// recorded at fill/hit time; NeverUsed for dead lines.
	nextUse [][]uint64
}

// NewBelady wraps an oracle in a Policy. The same oracle may back multiple
// policy instances, including concurrently: Belady uses only the oracle's
// immutable chain.
func NewBelady(o *Oracle) *Belady { return &Belady{oracle: o} }

// NewBeladyBypass is NewBelady with MIN-style bypass enabled.
func NewBeladyBypass(o *Oracle) *Belady { return &Belady{oracle: o, AllowBypass: true} }

// NewBeladyChain wraps any NextUseChain in the chain-driven Belady replay;
// the end-to-end benchmark passes its own chain wrappers through it.
func NewBeladyChain(src NextUseChain) *Belady { return &Belady{oracle: src} }

// Name implements Policy.
func (p *Belady) Name() string {
	if p.AllowBypass {
		return "belady-bypass"
	}
	return "belady"
}

// Init implements Policy.
func (p *Belady) Init(cfg Config) {
	if p.oracle == nil {
		panic("policy: Belady requires an Oracle; construct with NewBelady")
	}
	p.nextUse = setRows(cfg, uint64(NeverUsed))
}

// Victim implements Policy: evict the line whose recorded next use is
// farthest away, breaking ties toward the lowest way. A line with no
// future reference is returned immediately (nothing can beat it).
func (p *Belady) Victim(ctx AccessCtx, set *cache.Set) int {
	row := p.nextUse[ctx.SetIdx]
	best, bestNext := 0, uint64(0)
	for w, nu := range row {
		if nu == NeverUsed {
			return w
		}
		if nu > bestNext {
			best, bestNext = w, nu
		}
	}
	if p.AllowBypass {
		if own := p.oracle.NextAfter(ctx.Seq); own > bestNext {
			return Bypass
		}
	}
	return best
}

// Update implements Policy: record the touched line's next reference. The
// access at ctx.Seq is by definition the line's most recent reference, so
// the chain entry at ctx.Seq is its next use from now on.
func (p *Belady) Update(ctx AccessCtx, _ *cache.Set, way int, _ bool) {
	p.nextUse[ctx.SetIdx][way] = p.oracle.NextAfter(ctx.Seq)
}
