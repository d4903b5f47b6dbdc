package cachesim

// Test-only helpers: accessors and utilities that only tests call.

// Seq returns the number of accesses processed so far.
func (s *Simulator) Seq() uint64 { return s.seq }
