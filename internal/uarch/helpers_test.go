package uarch

// Test-only helpers: accessors and utilities that only tests call.

// Stats returns the accumulated LLC statistics.
func (h *Hierarchy) Stats() LLCStats { return h.stats }
