package obs

import (
	"fmt"
	"os"
	"sync"
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
func (o SpanOp) String() string {
	if int(o) < len(spanOpNames) {
		return spanOpNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// MarshalJSON encodes the op as its string name.
func (o SpanOp) MarshalJSON() ([]byte, error) {
	if int(o) >= len(spanOpNames) {
		return nil, fmt.Errorf("obs: unknown span op %d", uint8(o))
	}
	return []byte(`"` + spanOpNames[o] + `"`), nil
}

// UnmarshalJSON decodes an op name written by MarshalJSON.
func (o *SpanOp) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("obs: span op must be a JSON string, got %s", b)
	}
	name := string(b[1 : len(b)-1])
	for i, n := range spanOpNames {
		if n == name {
			*o = SpanOp(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown span op %q", name)
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

// SpanSink consumes request spans, mirroring Sink for cache events. The
// JSONL and discard sinks are shared between the two streams; the ring is
// span-typed.
type SpanSink interface {
	EmitSpan(s *Span) error
	Close() error
}

// EmitSpan writes one span line, sharing the JSONL sink's writer with any
// cache events it also carries.
func (s *JSONLSink) EmitSpan(sp *Span) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(sp)
}

// EmitSpan drops sp.
func (DiscardSink) EmitSpan(*Span) error { return nil }

// RingSpanSink keeps the most recent N spans in memory for live
// introspection (/spans), the span analogue of RingSink.
type RingSpanSink struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

// NewRingSpanSink holds the last n spans (n >= 1).
func NewRingSpanSink(n int) *RingSpanSink {
	if n < 1 {
		n = 1
	}
	return &RingSpanSink{buf: make([]Span, 0, n)}
}

// EmitSpan copies sp into the ring.
func (s *RingSpanSink) EmitSpan(sp *Span) error {
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, *sp)
	} else {
		s.buf[s.next] = *sp
		s.next = (s.next + 1) % cap(s.buf)
	}
	s.total++
	s.mu.Unlock()
	return nil
}

// Total returns the number of spans ever emitted (not just retained).
func (s *RingSpanSink) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Snapshot returns the retained spans, oldest first.
func (s *RingSpanSink) Snapshot() []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Span, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Close is a no-op.
func (*RingSpanSink) Close() error { return nil }

// OpenSpanSink builds a span sink from the same spec grammar as OpenSink
// (jsonl:PATH, ring:N, discard, bare PATH, any with an @N sampling
// suffix). When the spec is a ring, the concrete *RingSpanSink is also
// returned so callers can serve its snapshot (/spans).
func OpenSpanSink(spec string) (sink SpanSink, ring *RingSpanSink, sample int, err error) {
	sp, err := parseSinkSpec(spec)
	if err != nil {
		return nil, nil, 0, err
	}
	switch sp.kind {
	case sinkDiscard:
		return DiscardSink{}, nil, sp.sample, nil
	case sinkRing:
		ring = NewRingSpanSink(sp.ringN)
		return ring, ring, sp.sample, nil
	default:
		f, err := os.Create(sp.path)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("obs: span sink: %w", err)
		}
		return NewJSONLSink(f), nil, sp.sample, nil
	}
}

// SpanTracer samples and emits request spans. Start returns nil for
// unsampled requests (a counter stride, like the event sink's @N), and
// every ActiveSpan method is nil-safe, so the instrumented code path is
// branch-free of telemetry decisions: it just calls through. A nil
// *SpanTracer samples nothing — the disabled mode.
type SpanTracer struct {
	sink  SpanSink
	every uint64
	n     atomic.Uint64 // requests seen (sampling stride)
	seq   atomic.Uint64 // spans emitted
	fail  sync.Once
}

// NewSpanTracer wraps sink; sample <= 1 traces every request, sample = N
// traces one request in N.
func NewSpanTracer(sink SpanSink, sample int) *SpanTracer {
	every := uint64(1)
	if sample > 1 {
		every = uint64(sample)
	}
	return &SpanTracer{sink: sink, every: every}
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
	if (t.n.Add(1)-1)%t.every != 0 {
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
	if err := a.t.sink.EmitSpan(&a.span); err != nil {
		a.t.fail.Do(func() {
			fmt.Fprintf(os.Stderr, "obs: span sink failed (further errors suppressed): %v\n", err)
		})
	}
}
