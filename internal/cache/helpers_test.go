package cache

// Test-only helpers: accessors and utilities that only tests call.

// SizeBytes returns the data capacity of the configured cache.
func (c Config) SizeBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * c.LineSize
}
