package sched

// Test-only helpers: accessors and utilities that only tests call.

// helpersInUse reports the current outstanding helper count (tests).
func helpersInUse() int {
	tokens.mu.Lock()
	defer tokens.mu.Unlock()
	return tokens.inUse
}
