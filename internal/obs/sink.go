package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Sink consumes cache events. Sinks own their downstream resources; Close
// flushes and releases them. Sinks must be safe for concurrent Emit calls
// (parallel experiment sweeps trace from many simulator goroutines).
type Sink interface {
	Emit(e *CacheEvent) error
	Close() error
}

// JSONLSink encodes every event as one JSON line. Writes are buffered and
// mutex-serialized.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer // nil when the writer is not ours to close
}

// NewJSONLSink wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes one event line.
func (s *JSONLSink) Emit(e *CacheEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(e)
}

// Close flushes and closes the underlying writer.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.bw.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RingSink keeps the most recent N events in memory — a sampling buffer for
// live introspection (/events) that never touches disk and caps memory no
// matter how long the run is.
type RingSink struct {
	mu    sync.Mutex
	buf   []CacheEvent
	next  int
	total uint64
}

// NewRingSink holds the last n events (n >= 1).
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{buf: make([]CacheEvent, 0, n)}
}

// Emit copies e into the ring.
func (s *RingSink) Emit(e *CacheEvent) error {
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, *e)
	} else {
		s.buf[s.next] = *e
		s.next = (s.next + 1) % cap(s.buf)
	}
	s.total++
	s.mu.Unlock()
	return nil
}

// Total returns the number of events ever emitted (not just retained).
func (s *RingSink) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Snapshot returns the retained events, oldest first.
func (s *RingSink) Snapshot() []CacheEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CacheEvent, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Close is a no-op.
func (*RingSink) Close() error { return nil }

// DiscardSink drops every event — for measuring tracing overhead and for
// tests that only need the hook path exercised.
type DiscardSink struct{}

// Emit drops e.
func (DiscardSink) Emit(*CacheEvent) error { return nil }

// Close is a no-op.
func (DiscardSink) Close() error { return nil }

// sinkHook adapts a Sink into a Hook with optional 1-in-N sampling. The
// first Emit error is reported to stderr once; later errors are dropped so
// a full disk cannot crash a multi-hour run.
type sinkHook struct {
	sink  Sink
	every uint64
	n     Counter
	fail  sync.Once
}

// NewSinkHook wraps sink as a Hook. sample <= 1 forwards every event;
// sample = N forwards one event in N (a cheap global stride, good enough
// for rate estimation on multi-million-access runs).
func NewSinkHook(sink Sink, sample int) Hook {
	every := uint64(1)
	if sample > 1 {
		every = uint64(sample)
	}
	return &sinkHook{sink: sink, every: every}
}

// OnCacheEvent implements Hook.
func (h *sinkHook) OnCacheEvent(e *CacheEvent) {
	if h.every > 1 && (h.n.Value())%h.every != 0 {
		h.n.Inc()
		return
	}
	h.n.Inc()
	if err := h.sink.Emit(e); err != nil {
		h.fail.Do(func() {
			fmt.Fprintf(os.Stderr, "obs: trace sink failed (further errors suppressed): %v\n", err)
		})
	}
}

// sinkKind is the parsed family of a sink spec.
type sinkKind uint8

const (
	sinkJSONL sinkKind = iota
	sinkRing
	sinkDiscard
)

// sinkSpec is the parsed form of an -obs-trace / -span-trace flag value.
type sinkSpec struct {
	kind   sinkKind
	path   string // sinkJSONL
	ringN  int    // sinkRing
	sample int
}

// parseSinkSpec parses the shared sink grammar:
//
//	jsonl:PATH   one JSON line per record appended to PATH
//	ring:N       in-memory ring of the last N records
//	discard      parse-and-drop (overhead measurement)
//	PATH         shorthand for jsonl:PATH
//
// A "@N" suffix on any spec samples one record in N, e.g.
// "jsonl:t.jsonl@100". Cache-event traces (OpenSink) and request spans
// (OpenSpanSink) speak the same grammar.
func parseSinkSpec(spec string) (sinkSpec, error) {
	out := sinkSpec{sample: 1}
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		n, err := strconv.Atoi(spec[at+1:])
		if err != nil || n < 1 {
			return out, fmt.Errorf("obs: bad sample factor in trace spec %q", spec)
		}
		out.sample, spec = n, spec[:at]
	}
	switch {
	case spec == "discard":
		out.kind = sinkDiscard
	case strings.HasPrefix(spec, "ring:"):
		n, err := strconv.Atoi(spec[len("ring:"):])
		if err != nil || n < 1 {
			return out, fmt.Errorf("obs: bad ring size in trace spec %q", spec)
		}
		out.kind, out.ringN = sinkRing, n
	case strings.HasPrefix(spec, "jsonl:"):
		spec = spec[len("jsonl:"):]
		fallthrough
	default:
		if spec == "" {
			return out, fmt.Errorf("obs: empty trace path")
		}
		out.kind, out.path = sinkJSONL, spec
	}
	return out, nil
}

// OpenSink builds a cache-event sink from an -obs-trace flag spec (see
// parseSinkSpec for the grammar). The returned sample factor is what
// NewSinkHook should be given.
func OpenSink(spec string) (Sink, int, error) {
	sp, err := parseSinkSpec(spec)
	if err != nil {
		return nil, 0, err
	}
	switch sp.kind {
	case sinkDiscard:
		return DiscardSink{}, sp.sample, nil
	case sinkRing:
		return NewRingSink(sp.ringN), sp.sample, nil
	default:
		f, err := os.Create(sp.path)
		if err != nil {
			return nil, 0, fmt.Errorf("obs: trace sink: %w", err)
		}
		return NewJSONLSink(f), sp.sample, nil
	}
}

// ReadEvents decodes a JSONL cache-event stream (the JSONLSink format),
// for tests and offline analysis.
func ReadEvents(r io.Reader) ([]CacheEvent, error) {
	var out []CacheEvent
	dec := json.NewDecoder(r)
	for {
		var e CacheEvent
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
