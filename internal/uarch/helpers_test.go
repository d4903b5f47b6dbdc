package uarch

// Test-only helpers: accessors and utilities that only tests call.

// Stats returns the accumulated LLC statistics.
func (h *Hierarchy) Stats() LLCStats { return h.stats }

// invalidate removes addr's block if resident and reports whether it was.
// It clears the way's key and valid bit and leaves the recency order alone.
func (d *lruDir) invalidate(addr uint64) bool {
	set, way, hit := d.probe(addr)
	if hit {
		d.keys[int(set)*d.ways+way] = 0
		d.valid[set] &^= 1 << way
	}
	return hit
}
