package obs

import (
	"sync/atomic"
	"time"
)

// SpanOp classifies a request span.
type SpanOp uint8

// Span operations.
const (
	SpanGet SpanOp = iota
	SpanPut
	SpanDelete
	numSpanOps
)

var spanOpNames = [numSpanOps]string{"get", "put", "delete"}

// String returns the wire name.
func (o SpanOp) String() string { return enumString(o, spanOpNames[:], "op") }

// MarshalJSON encodes the op as its string name.
func (o SpanOp) MarshalJSON() ([]byte, error) { return marshalEnum(o, spanOpNames[:], "span op") }

// UnmarshalJSON decodes an op name written by MarshalJSON.
func (o *SpanOp) UnmarshalJSON(b []byte) error {
	return unmarshalEnum(o, spanOpNames[:], b, "span op")
}

// SpanPhase indexes the timed phases inside a request span.
type SpanPhase uint8

// Span phases: the decomposition of one cache-server request. Separating
// the policy's victim scan from lock contention and blob I/O is what lets
// a strict per-eviction inference budget (Cold-RL's requirement) be
// checked on a live workload rather than estimated offline.
const (
	PhaseLockWait SpanPhase = iota // waiting on the shard mutex
	PhaseVictim                    // policy victim scan (incl. budget-sweep scans)
	PhaseStore                     // content-store I/O (blob get/put)
	NumSpanPhases
)

// Span is one sampled per-request record on the span stream. Phase fields
// are nanosecond totals; whatever the phases don't cover (hashing, tag
// probe, HTTP plumbing) is TotalNs minus their sum. Flat and std-only like
// CacheEvent so sinks and external decoders round-trip it via
// encoding/json.
type Span struct {
	Op          SpanOp `json:"op"`
	Key         string `json:"key,omitempty"`
	Shard       int    `json:"shard"`
	Seq         uint64 `json:"seq"` // sampled-span sequence number
	StartUnixNs int64  `json:"start_unix_ns"`
	TotalNs     int64  `json:"total_ns"`
	LockWaitNs  int64  `json:"lock_wait_ns"`
	VictimNs    int64  `json:"victim_ns"`
	StoreNs     int64  `json:"store_ns"`
	Hit         bool   `json:"hit,omitempty"`
	Outcome     string `json:"outcome,omitempty"` // hit|miss|stored|updated|bypassed|deleted|absent
}

// addPhase accumulates ns into the phase's field.
func (s *Span) addPhase(p SpanPhase, ns int64) {
	switch p {
	case PhaseLockWait:
		s.LockWaitNs += ns
	case PhaseVictim:
		s.VictimNs += ns
	case PhaseStore:
		s.StoreNs += ns
	}
}

// SpanSink consumes request spans: what a SpanTracer emits to. A generic
// Sink[Span] (JSONL, ring, discard, from Open) becomes one through
// SpanSinkOf.
type SpanSink interface {
	EmitSpan(s *Span) error
	Close() error
}

// SpanSinkOf adapts a generic span sink to a SpanSink.
func SpanSinkOf(s Sink[Span]) SpanSink { return spanSink{s} }

// spanSink is the SpanSinkOf adapter.
type spanSink struct{ Sink[Span] }

// EmitSpan forwards sp to the wrapped sink.
func (s spanSink) EmitSpan(sp *Span) error { return s.Emit(sp) }

// SpanTracer samples and emits request spans. Start returns nil for
// unsampled requests (a counter stride, like the event sink's @N), and
// every ActiveSpan method is nil-safe, so the instrumented code path is
// branch-free of telemetry decisions: it just calls through. A nil
// *SpanTracer samples nothing — the disabled mode.
type SpanTracer struct {
	sink SpanSink
	seq  atomic.Uint64 // spans emitted
	sampler
}

// NewSpanTracer wraps sink; sample <= 1 traces every request, sample = N
// traces one request in N.
func NewSpanTracer(sink SpanSink, sample int) *SpanTracer {
	return &SpanTracer{sink: sink, sampler: newSampler(sample)}
}

// Close closes the underlying sink (flushing a JSONL file). Nil-safe.
func (t *SpanTracer) Close() error {
	if t == nil {
		return nil
	}
	return t.sink.Close()
}

// Start begins a span for one request, or returns nil when the request
// falls outside the sampling stride. The caller threads the *ActiveSpan
// through the request path and calls Finish exactly once.
func (t *SpanTracer) Start(op SpanOp) *ActiveSpan {
	if t == nil {
		return nil
	}
	if !t.take() {
		return nil
	}
	a := &ActiveSpan{t: t, start: time.Now()}
	a.span.Op = op
	a.span.Shard = -1
	a.span.StartUnixNs = a.start.UnixNano()
	return a
}

// ActiveSpan is one in-flight sampled request. All methods are nil-safe
// no-ops, so unsampled requests (nil span) pay one pointer check per call
// site and never read the clock.
type ActiveSpan struct {
	t     *SpanTracer
	span  Span
	start time.Time
	mark  time.Time
}

// SetKey attaches the request key.
func (a *ActiveSpan) SetKey(key string) {
	if a != nil {
		a.span.Key = key
	}
}

// SetShard attaches the owning shard index.
func (a *ActiveSpan) SetShard(i int) {
	if a != nil {
		a.span.Shard = i
	}
}

// Mark sets the phase reference point: the next EndPhase charges the time
// since this call.
func (a *ActiveSpan) Mark() {
	if a != nil {
		a.mark = time.Now()
	}
}

// EndPhase charges the time since the last Mark (or EndPhase) to phase p
// and re-marks, so consecutive phases chain without an explicit Mark.
func (a *ActiveSpan) EndPhase(p SpanPhase) {
	if a == nil {
		return
	}
	now := time.Now()
	a.span.addPhase(p, now.Sub(a.mark).Nanoseconds())
	a.mark = now
}

// Finish stamps the total latency and outcome and emits the span. The
// first sink error is reported to stderr once; later errors are dropped
// (a full disk must not take the server down).
func (a *ActiveSpan) Finish(outcome string, hit bool) {
	if a == nil {
		return
	}
	a.span.TotalNs = time.Since(a.start).Nanoseconds()
	a.span.Outcome = outcome
	a.span.Hit = hit
	a.span.Seq = a.t.seq.Add(1) - 1
	a.t.report("span", a.t.sink.EmitSpan(&a.span))
}
