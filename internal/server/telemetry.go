package server

import (
	"sync"

	"repro/internal/obs"
)

// This file is the server half of the telemetry layer: rendering the
// per-shard obs.Window and obs.TopK state into the JSON payloads served at
// /window and /topkeys, and registering Prometheus HELP text for the
// server's metric families.

// WindowStats is the rendered, JSON-friendly view of one sliding-window
// snapshot: counts plus the derived rates and latency quantiles a live
// dashboard (obstool top) actually wants.
type WindowStats struct {
	Gets            uint64  `json:"gets"`
	GetHits         uint64  `json:"get_hits"`
	Puts            uint64  `json:"puts"`
	Fills           uint64  `json:"fills"`
	Evictions       uint64  `json:"evictions"`
	Bypasses        uint64  `json:"bypasses"`
	HitRatePct      float64 `json:"hit_rate_pct"`
	QPS             float64 `json:"qps"`
	EvictionsPerSec float64 `json:"evictions_per_sec"`
	Requests        uint64  `json:"requests"` // latency observations in-window
	P50Micros       float64 `json:"p50_us"`
	P90Micros       float64 `json:"p90_us"`
	P99Micros       float64 `json:"p99_us"`
	MeanMicros      float64 `json:"mean_us"`
}

// renderWindow derives the dashboard figures from a raw window snapshot.
func renderWindow(sn obs.WindowSnapshot) WindowStats {
	const usPerNs = 1.0 / 1000
	return WindowStats{
		Gets:            sn.Counts.Gets,
		GetHits:         sn.Counts.GetHits,
		Puts:            sn.Counts.Puts,
		Fills:           sn.Counts.Fills,
		Evictions:       sn.Counts.Evictions,
		Bypasses:        sn.Counts.Bypasses,
		HitRatePct:      sn.HitRatePct(),
		QPS:             sn.QPS(),
		EvictionsPerSec: sn.EvictionsPerSec(),
		Requests:        sn.Counts.LatCount,
		P50Micros:       sn.LatencyQuantileNs(0.50) * usPerNs,
		P90Micros:       sn.LatencyQuantileNs(0.90) * usPerNs,
		P99Micros:       sn.LatencyQuantileNs(0.99) * usPerNs,
		MeanMicros:      sn.MeanLatencyNs() * usPerNs,
	}
}

// WindowReport is the /window payload: the global fold plus every shard.
type WindowReport struct {
	Enabled    bool          `json:"enabled"`
	WindowSec  float64       `json:"window_s"`
	BucketSec  float64       `json:"bucket_s"`
	CoveredSec float64       `json:"covered_s"`
	Global     WindowStats   `json:"global"`
	Shards     []WindowStats `json:"shards"`
}

// globalWindow folds every shard's window snapshot into one.
func (s *Server) globalWindow() obs.WindowSnapshot {
	snaps := make([]obs.WindowSnapshot, len(s.shards))
	for i, sh := range s.shards {
		snaps[i] = sh.win.Snapshot()
	}
	return obs.MergeWindowSnapshots(snaps...)
}

// WindowReport renders the sliding-window metrics per shard and globally.
// With windowed metrics off it reports Enabled=false and zeros.
func (s *Server) WindowReport() WindowReport {
	rep := WindowReport{Enabled: s.cfg.Telemetry.windowed()}
	if !rep.Enabled {
		return rep
	}
	snaps := make([]obs.WindowSnapshot, len(s.shards))
	rep.Shards = make([]WindowStats, len(s.shards))
	for i, sh := range s.shards {
		snaps[i] = sh.win.Snapshot()
		rep.Shards[i] = renderWindow(snaps[i])
	}
	g := obs.MergeWindowSnapshots(snaps...)
	rep.WindowSec, rep.BucketSec, rep.CoveredSec = g.WindowSec, g.BucketSec, g.CoveredSec
	rep.Global = renderWindow(g)
	return rep
}

// TopKeysReport is the /topkeys payload: which keys drive misses and
// evictions right now, merged across the per-shard Space-Saving sketches —
// the live analogue of the paper's §IV victim-feature mining.
type TopKeysReport struct {
	Enabled   bool            `json:"enabled"`
	K         int             `json:"k"`
	Misses    []obs.TopKEntry `json:"misses"`
	Evictions []obs.TopKEntry `json:"evictions"`
}

// TopKeys merges the per-shard sketches (each snapshotted under its shard
// lock) into one top-K list per stream.
func (s *Server) TopKeys() TopKeysReport {
	rep := TopKeysReport{Enabled: s.cfg.Telemetry.TopK > 0, K: s.cfg.Telemetry.TopK}
	if !rep.Enabled {
		return rep
	}
	miss := make([][]obs.TopKEntry, len(s.shards))
	evict := make([][]obs.TopKEntry, len(s.shards))
	for i, sh := range s.shards {
		miss[i], evict[i] = sh.topSnapshots()
	}
	rep.Misses = obs.MergeTopK(rep.K, miss...)
	rep.Evictions = obs.MergeTopK(rep.K, evict...)
	return rep
}

// helpOnce guards the one-time Prometheus HELP registration for the
// server's metric families.
var helpOnce sync.Once

// registerMetricHelp attaches HELP text to every server metric family so
// /metrics?format=prometheus is self-describing.
func registerMetricHelp() {
	helpOnce.Do(func() {
		for family, help := range map[string]string{
			"server_gets":                "GET requests served",
			"server_hits":                "GET requests answered from cache",
			"server_misses":              "GET requests that missed",
			"server_puts":                "PUT requests served",
			"server_fills":               "objects filled into the cache",
			"server_evictions_by_policy": "objects evicted, labeled by replacement policy",
			"server_bypasses":            "PUTs declined by admission or policy",
			"server_deletes":             "resident keys deleted",
			"server_bytes":               "resident payload bytes across shards",
			"server_request_ns":          "request latency in nanoseconds (power-of-two buckets)",
		} {
			obs.RegisterHelp(family, help)
		}
	})
}
