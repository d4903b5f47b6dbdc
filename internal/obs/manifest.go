package obs

import (
	"fmt"
	"io"
	"os"
	"time"
)

// Manifest record kinds. A run manifest is a JSONL stream of
// ManifestRecord values: one run_start, per-epoch telemetry, checkpoint
// save/resume events, and one run_end — enough to reconstruct the full
// training trajectory (loss/reward/hit-rate curves) after the fact.
const (
	RecRunStart       = "run_start"
	RecEpoch          = "epoch"
	RecCheckpointSave = "checkpoint_save"
	RecResume         = "resume"
	RecRunEnd         = "run_end"
)

// ManifestRecord is one line of a run manifest. It is a flat union over the
// record kinds; unrelated fields stay at their zero values and are omitted
// from the JSON. Numeric epoch-telemetry fields deliberately do NOT use
// omitempty: a 0.0 loss or a 0% hit rate is data, not absence.
type ManifestRecord struct {
	Kind       string `json:"kind"`
	TimeUnixMS int64  `json:"time_unix_ms,omitempty"`

	// run_start
	Fingerprint string     `json:"fingerprint,omitempty"`
	Workload    string     `json:"workload,omitempty"`
	Accesses    int        `json:"accesses,omitempty"`
	Epochs      int        `json:"epochs,omitempty"`
	Meta        *BuildInfo `json:"meta,omitempty"`

	// epoch (also run_end's final summary)
	Epoch      int     `json:"epoch"`
	Steps      uint64  `json:"steps,omitempty"`
	Loss       float64 `json:"loss"`
	MeanReward float64 `json:"mean_reward"`
	Epsilon    float64 `json:"epsilon"`
	HitRate    float64 `json:"hit_rate"`
	WeightNorm float64 `json:"weight_norm"`
	Decisions  uint64  `json:"decisions,omitempty"`
	Batches    uint64  `json:"batches,omitempty"`

	// checkpoint_save / resume
	Path string `json:"path,omitempty"`

	// run_end
	Err string `json:"error,omitempty"`
}

// Manifest appends ManifestRecord lines to a writer: a JSONL sink that
// stamps the wall clock on a record that carries none and flushes every
// line, so a crashed or killed run leaves a readable manifest up to its
// last event. A nil *Manifest is a valid no-op writer, so callers wire
// telemetry unconditionally and only the flag decides whether anything
// lands on disk.
type Manifest struct {
	w   *JSONL[ManifestRecord]
	now func() time.Time // test override
}

// NewManifest wraps w. If w is also an io.Closer, Close closes it.
func NewManifest(w io.Writer) *Manifest {
	j := NewJSONL[ManifestRecord](w)
	j.flushEach = true
	return &Manifest{w: j, now: time.Now}
}

// OpenManifest creates (truncates) the manifest file at path. An empty path
// returns a nil no-op manifest.
func OpenManifest(path string) (*Manifest, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: run manifest: %w", err)
	}
	return NewManifest(f), nil
}

// Write appends one record.
func (m *Manifest) Write(rec ManifestRecord) error {
	if m == nil {
		return nil
	}
	if rec.TimeUnixMS == 0 {
		rec.TimeUnixMS = m.now().UnixMilli()
	}
	return m.w.Emit(&rec)
}

// Close flushes and closes the underlying file.
func (m *Manifest) Close() error {
	if m == nil {
		return nil
	}
	return m.w.Close()
}
