// replay.go is the frame-granular replay driver: it feeds a Simulator from
// any trace.FrameSource one frame at a time, reusing a single frame buffer,
// so replay memory is O(frame) no matter how long the trace is. Together
// with the chunked container (internal/trace) and streaming generation
// (internal/workloads) it simulates traces far larger than RAM under any
// policy that needs no future knowledge; Belady's oracle holds the whole
// trace's next-use chain in memory. The representative-interval
// experiment replays its windows through RunRange.
package cachesim

import (
	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

// RunFrames replays every access of src in order and returns the final
// statistics. One frame buffer is reused across the whole replay.
func (s *Simulator) RunFrames(src trace.FrameSource) (Stats, error) {
	var buf []trace.Access
	var err error
	for i := 0; i < src.Frames(); i++ {
		buf, err = src.ReadFrameAt(i, buf)
		if err != nil {
			return s.stats, err
		}
		for _, a := range buf {
			s.Step(a)
		}
	}
	return s.stats, nil
}

// RunRange replays the n accesses starting at global sequence start,
// skipping the first warmup of them for statistics purposes: the returned
// Stats cover only the accesses in [start+warmup, start+n). Cache and
// policy state still see every access (warmup is how a mid-trace window
// is given realistic starting contents). The range must lie within src.
//
// The simulator's own Seq keeps counting from wherever it was; policies
// that interpret ctx.Seq as a trace index (Belady) should only be driven
// from sequence-aligned positions.
func (s *Simulator) RunRange(src trace.FrameSource, start, n, warmup uint64) (Stats, error) {
	if warmup > n {
		warmup = n
	}
	var buf []trace.Access
	var err error
	var done uint64
	var base Stats
	if warmup == 0 {
		base = s.stats
	}
	total := src.NumAccesses()
	if start+n > total {
		n = total - min(start, total)
	}
	frame := 0
	if n > 0 {
		frame = frameAt(src, start)
	}
	for done < n && frame < src.Frames() {
		buf, err = src.ReadFrameAt(frame, buf)
		if err != nil {
			return diffStats(s.stats, base), err
		}
		fs := src.FrameStart(frame)
		lo := uint64(0)
		if start > fs {
			lo = start - fs
		}
		for _, a := range buf[lo:] {
			if done == warmup {
				base = s.stats
			}
			s.Step(a)
			done++
			if done == n {
				break
			}
		}
		frame++
	}
	if done < warmup {
		base = s.stats
	}
	return diffStats(s.stats, base), nil
}

// frameAt locates the frame containing global access seq by binary search
// over FrameStart.
func frameAt(src trace.FrameSource, seq uint64) int {
	lo, hi := 0, src.Frames()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if src.FrameStart(mid) <= seq {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// diffStats returns the per-window statistics accumulated between base and
// cur (cur - base, field-wise).
func diffStats(cur, base Stats) Stats {
	d := Stats{
		Accesses:       cur.Accesses - base.Accesses,
		Hits:           cur.Hits - base.Hits,
		Misses:         cur.Misses - base.Misses,
		Bypasses:       cur.Bypasses - base.Bypasses,
		DemandAccesses: cur.DemandAccesses - base.DemandAccesses,
		DemandHits:     cur.DemandHits - base.DemandHits,
		DemandMisses:   cur.DemandMisses - base.DemandMisses,
		Evictions:      cur.Evictions - base.Evictions,
		DirtyEvictions: cur.DirtyEvictions - base.DirtyEvictions,
		InvalidFills:   cur.InvalidFills - base.InvalidFills,
	}
	for i := range d.AccessesByType {
		d.AccessesByType[i] = cur.AccessesByType[i] - base.AccessesByType[i]
		d.HitsByType[i] = cur.HitsByType[i] - base.HitsByType[i]
	}
	return d
}

// RunFramesPolicy is the streaming counterpart of RunPolicy: build a
// simulator for cfg/p on a reset pooled cache and replay src frame by
// frame.
func RunFramesPolicy(cfg cache.Config, p policy.Policy, src trace.FrameSource) (Stats, error) {
	c := pooledCache(cfg)
	defer releaseCache(c)
	return newOnCache(c, 1, p).RunFrames(src)
}
