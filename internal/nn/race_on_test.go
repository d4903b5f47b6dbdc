//go:build race

package nn

// raceEnabled reports whether the race detector is compiled in; timing
// smokes skip themselves under its instrumentation overhead.
const raceEnabled = true
