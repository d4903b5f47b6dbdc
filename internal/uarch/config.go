// Package uarch is the repository's ChampSim counterpart: a trace-driven
// timing simulator with an approximate out-of-order core model and a
// three-level cache hierarchy (Table III), used for the IPC experiments of
// §V (Figures 10–13, Table IV).
//
// Fidelity is aimed where replacement policies differ: LLC hit/miss
// behaviour, prefetch and writeback traffic reaching the LLC, and the
// exposure of miss latency through a bounded out-of-order window. The core
// model is an analytic ROB-window model (issue width, ROB occupancy,
// load-dependence chains, front-end misses), not a cycle-accurate pipeline;
// DESIGN.md discusses why relative IPC between replacement policies is
// preserved.
package uarch

import (
	"repro/internal/cache"
)

// Config describes the simulated system (defaults reproduce Table III).
type Config struct {
	Cores int

	IssueWidth int // instructions per cycle (3)
	ROBSize    int // reorder-buffer entries (256)

	// The private levels (L1I, L1D, L2) are true LRU caches, as in Table
	// III, kept in a tag directory that holds one 4-bit way id per way in a
	// 64-bit recency stack: each needs at most 16 ways and 64-byte lines.
	// Only the LLC runs the replacement policy and keeps the Table II line
	// features; it may have any associativity cache.Config allows, but its
	// lines must be 64 bytes too, since every level's in-flight table keys
	// blocks by addr>>6. NewHierarchy panics on any other geometry.
	L1I        cache.Config
	L1ILatency uint64
	L1D        cache.Config
	L1DLatency uint64
	L2         cache.Config
	L2Latency  uint64
	LLC        cache.Config // total shared capacity (scaled by cores by DefaultConfig)
	LLCLatency uint64

	DRAMLatency uint64

	// L1NextLine enables the next-line prefetcher at L1D (Table III).
	L1NextLine bool
	// L2Prefetcher selects the L2 prefetcher: "ip-stride" (Table III),
	// "kpc-p" (§V-B), or "none".
	L2Prefetcher string

	// MSHRs bounds each private cache level's in-flight miss table (timing
	// merge windows); the shared LLC's bound is MSHRs*Cores. Once a table
	// holds its bound in entries, each new miss first drops every
	// completed entry; if 4× the bound or more are still in flight after
	// that, the table is cleared.
	MSHRs int
}

// DefaultConfig returns the Table III system for the given core count:
// 6-stage 3-issue OoO with a 256-entry ROB, 32KB 8-way L1s (4 cycles),
// 256KB 8-way L2 (12 cycles), 2MB/core 16-way shared LLC (26 cycles),
// next-line L1 and IP-stride L2 prefetching, no LLC prefetcher.
func DefaultConfig(cores int) Config {
	if cores < 1 {
		cores = 1
	}
	return Config{
		Cores:        cores,
		IssueWidth:   3,
		ROBSize:      256,
		L1I:          cache.Config{Sets: 64, Ways: 8, LineSize: 64}, // 32KB
		L1ILatency:   4,
		L1D:          cache.Config{Sets: 64, Ways: 8, LineSize: 64}, // 32KB
		L1DLatency:   4,
		L2:           cache.Config{Sets: 512, Ways: 8, LineSize: 64}, // 256KB
		L2Latency:    12,
		LLC:          cache.Config{Sets: 2048 * cores, Ways: 16, LineSize: 64}, // 2MB/core
		LLCLatency:   26,
		DRAMLatency:  200,
		L1NextLine:   true,
		L2Prefetcher: "ip-stride",
		MSHRs:        64,
	}
}

// ScaledConfig returns DefaultConfig shrunk by factor f (≥1) in cache
// capacity, for fast tests and benches: sets are divided by f while
// latencies and associativities are preserved. Workload footprints shrink
// correspondingly in the test harnesses that use it.
func ScaledConfig(cores, f int) Config {
	c := DefaultConfig(cores)
	if f <= 1 {
		return c
	}
	shrink := func(cc cache.Config) cache.Config {
		cc.Sets /= f
		if cc.Sets < 2 {
			cc.Sets = 2
		}
		return cc
	}
	c.L1I, c.L1D, c.L2, c.LLC = shrink(c.L1I), shrink(c.L1D), shrink(c.L2), shrink(c.LLC)
	return c
}
