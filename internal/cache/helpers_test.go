package cache

// Test-only helpers: accessors and utilities that only tests call.

// SizeBytes returns the data capacity of the configured cache.
func (c Config) SizeBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * c.LineSize
}

// SetEvictObserver installs fn to be called on every eviction of a valid
// line. Passing nil removes the observer.
func (c *Cache) SetEvictObserver(fn EvictFunc) { c.lineEvents = fn }
