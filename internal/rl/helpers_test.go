package rl

// Test-only helpers: accessors and utilities that only tests call.

// Int8 reports whether frozen int8 inference is active.
func (a *Agent) Int8() bool { return a.qint8 != nil }

// Only returns a mask with exactly the given features enabled.
func Only(fs ...Feature) FeatureSet {
	var out FeatureSet
	for _, f := range fs {
		out[f] = true
	}
	return out
}

// Push stores a transition, overwriting the oldest when full. The memory
// keeps the caller's slices; use Put on the hot path to recycle buffers.
func (r *Replay) Push(t Transition) {
	r.buf[r.next] = t
	r.advance()
}

// Agent returns the agent being trained (still in training mode until
// Finish is called).
func (t *Trainer) Agent() *Agent { return t.agent }
