package stats

// Test-only helpers: accessors and utilities that only tests call.

// MPKI converts a miss count over an instruction count into misses per
// kilo-instruction.
func MPKI(misses, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(misses) / float64(instructions)
}
