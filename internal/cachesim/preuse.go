package cachesim

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/xrand"
)

// preuseWays is the probe window: each bucket holds up to preuseWays
// entries scanned linearly, like a small set-associative cache.
const preuseWays = 8

// preuseTable is the access-preuse history behind Table II's "access
// preuse" feature: block address → the set-access count at the block's
// last touch. A simulator builds one only for a reader (the RL agent, via
// TrackAccessPreuse, or the llc_reuse_distance histogram). It replaces
// the former per-set map[uint64]uint64 with a fixed-size, bucketed
// open-addressed probe table so the per-access path does no hashing-map
// work, no allocation, and no periodic sweep: every store probes exactly
// one preuseWays-slot bucket and, when the bucket is full, displaces its
// least-recently-stamped entry.
//
// Displacement makes the table lossy under pressure: a displaced block
// reads as never-accessed. The table is sized at 4× the cache's line count,
// so a block touched within the feature's normalization range (a few
// hundred set accesses) is displaced only when 8+ recently-touched blocks
// collide in one bucket — and the cost is one feature reading 1.0 (the
// never-accessed/saturated value) instead of its exact preuse.
type preuseTable struct {
	blocks []uint64 // key + 1; 0 marks an empty slot
	last   []uint32 // set-access count (truncated) at the block's last touch
	stamp  []uint32 // global access count (truncated) at last touch; drives displacement
	mask   uint64   // bucket count - 1 (bucket count is a power of two)
}

// newPreuseTable sizes a table for a cache with the given line count.
func newPreuseTable(lines int) *preuseTable {
	buckets := uint64(32 / preuseWays)
	for buckets*preuseWays < uint64(lines)*4 {
		buckets <<= 1
	}
	n := buckets * preuseWays
	return &preuseTable{
		blocks: make([]uint64, n),
		last:   make([]uint32, n),
		stamp:  make([]uint32, n),
		mask:   buckets - 1,
	}
}

func (t *preuseTable) bucket(block uint64) uint64 {
	return (xrand.Mix64(block) & t.mask) * preuseWays
}

// lookup returns the set-access count stored for block.
func (t *preuseTable) lookup(block uint64) (uint32, bool) {
	base := t.bucket(block)
	for i := base; i < base+preuseWays; i++ {
		if t.blocks[i] == block+1 {
			return t.last[i], true
		}
	}
	return 0, false
}

// store records a touch of block at set-access count acc; seq is the global
// access count used to pick the displacement victim.
func (t *preuseTable) store(block uint64, acc, seq uint32) {
	base := t.bucket(block)
	victim, victimAge := base, uint32(0)
	empty := false
	for i := base; i < base+preuseWays; i++ {
		switch {
		case t.blocks[i] == block+1:
			t.last[i], t.stamp[i] = acc, seq
			return
		case t.blocks[i] == 0:
			if !empty {
				victim, empty = i, true
			}
		case !empty:
			if age := seq - t.stamp[i]; age >= victimAge {
				victim, victimAge = i, age
			}
		}
	}
	t.blocks[victim] = block + 1
	t.last[victim], t.stamp[victim] = acc, seq
}

// size returns the table's fixed slot count (tests assert boundedness).
func (t *preuseTable) size() int { return len(t.blocks) }

// save serializes the table's slots (the geometry-derived sizing is
// reproduced by the loader's own construction, so only a length check is
// stored with the data).
func (t *preuseTable) save(w io.Writer) error {
	le := binary.LittleEndian
	if err := binary.Write(w, le, uint64(len(t.blocks))); err != nil {
		return err
	}
	for _, vec := range []any{t.blocks, t.last, t.stamp} {
		if err := binary.Write(w, le, vec); err != nil {
			return err
		}
	}
	return nil
}

// load restores slots saved with save into this identically sized table;
// the caller has already read the slot count n.
func (t *preuseTable) load(r io.Reader, n uint64) error {
	le := binary.LittleEndian
	if n != uint64(len(t.blocks)) {
		return fmt.Errorf("cachesim: preuse table state has %d slots, table has %d", n, len(t.blocks))
	}
	for _, vec := range []any{t.blocks, t.last, t.stamp} {
		if err := binary.Read(r, le, vec); err != nil {
			return err
		}
	}
	return nil
}
