package core

// Accessors for the external test package; no production code calls them.

// CorePriorities returns a copy of the current per-core priority levels
// (§IV-D); all zeros outside multicore mode.
func (p *RLR) CorePriorities() []int {
	out := make([]int, len(p.coreHits))
	for c := range out {
		out[c] = int(p.corePrio[c])
	}
	return out
}

// RD returns the current predicted reuse distance.
func (p *RLR) RD() uint32 { return p.rd }
