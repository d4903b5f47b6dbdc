package obs

// Test-only helpers: accessors and utilities that only tests call.

// Enabled reports whether metrics collection is on.
func Enabled() bool { return enabled.Load() }

// Mean returns the mean observation (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Sampled returns the number of spans emitted so far (0 on nil).
func (t *SpanTracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}
