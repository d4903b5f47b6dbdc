package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Sink consumes records of one type: cache events, request spans or run
// manifest records. Sinks own their downstream resources; Close flushes
// and releases them. Sinks must be safe for concurrent Emit calls
// (parallel experiment sweeps trace from many simulator goroutines).
type Sink[T any] interface {
	Emit(rec *T) error
	Close() error
}

// JSONL encodes every record as one JSON line. Writes are buffered and
// mutex-serialized.
type JSONL[T any] struct {
	mu        sync.Mutex
	bw        *bufio.Writer
	enc       *json.Encoder
	c         io.Closer // nil when the writer is not ours to close
	flushEach bool      // flush after every record (run manifests)
}

// NewJSONL wraps w. If w is also an io.Closer, Close closes it.
func NewJSONL[T any](w io.Writer) *JSONL[T] {
	bw := bufio.NewWriter(w)
	s := &JSONL[T]{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes one record line.
func (s *JSONL[T]) Emit(rec *T) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(rec); err != nil || !s.flushEach {
		return err
	}
	return s.bw.Flush()
}

// Close flushes and closes the underlying writer.
func (s *JSONL[T]) Close() error {
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

// Ring keeps the most recent N records in memory — a sampling buffer for
// live introspection (/events, /spans) that never touches disk and caps
// memory no matter how long the run is. It serves its snapshot as JSONL
// over HTTP.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
}

// NewRing holds the last n records (n >= 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{buf: make([]T, 0, n)}
}

// Emit copies rec into the ring.
func (r *Ring[T]) Emit(rec *T) error {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, *rec)
	} else {
		r.buf[r.next] = *rec
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.mu.Unlock()
	return nil
}

// Snapshot returns the retained records, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Close is a no-op.
func (*Ring[T]) Close() error { return nil }

// ServeHTTP writes the snapshot as JSONL, one record per line.
func (r *Ring[T]) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range r.Snapshot() {
		if err := enc.Encode(&rec); err != nil {
			return
		}
	}
}

// Discard drops every record — for measuring tracing overhead and for
// tests that only need the hook path exercised.
type Discard[T any] struct{}

// Emit drops rec.
func (Discard[T]) Emit(*T) error { return nil }

// Close is a no-op.
func (Discard[T]) Close() error { return nil }

// Open builds a sink from a -obs-trace flag spec:
//
//	jsonl:PATH   one JSON line per record written to PATH
//	ring:N       in-memory ring of the last N records
//	discard      parse-and-drop (overhead measurement)
//	PATH         shorthand for jsonl:PATH
//
// A "@N" suffix on any spec samples one record in N, e.g.
// "jsonl:t.jsonl@100"; the returned sample factor is what NewSinkHook or
// NewSpanTracer should be given. When the spec is a ring, ring is the
// same sink, so the caller can serve it; otherwise ring is nil.
func Open[T any](spec string) (sink Sink[T], ring *Ring[T], sample int, err error) {
	sample = 1
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		n, err := strconv.Atoi(spec[at+1:])
		if err != nil || n < 1 {
			return nil, nil, 0, fmt.Errorf("obs: bad sample factor in sink spec %q", spec)
		}
		sample, spec = n, spec[:at]
	}
	switch {
	case spec == "discard":
		return Discard[T]{}, nil, sample, nil
	case strings.HasPrefix(spec, "ring:"):
		n, err := strconv.Atoi(spec[len("ring:"):])
		if err != nil || n < 1 {
			return nil, nil, 0, fmt.Errorf("obs: bad ring size in sink spec %q", spec)
		}
		ring = NewRing[T](n)
		return ring, ring, sample, nil
	}
	spec = strings.TrimPrefix(spec, "jsonl:")
	if spec == "" {
		return nil, nil, 0, fmt.Errorf("obs: empty sink path")
	}
	f, err := os.Create(spec)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("obs: sink: %w", err)
	}
	return NewJSONL[T](f), nil, sample, nil
}

// ReadJSONL decodes a JSONL record stream (the JSONL sink's format), for
// tests, obstool and offline analysis. It is strict: a malformed line
// fails with its record index.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	dec := json.NewDecoder(r)
	for {
		var rec T
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// sampler is the 1-in-N stride and the error policy shared by the event
// hook and the span tracer. The stride is one atomic add, so concurrent
// emitters forward exactly one call in every, starting with the first.
// The first sink error is reported to stderr once; later errors are
// dropped so a full disk cannot crash a multi-hour run or take the
// server down.
type sampler struct {
	every uint64
	n     atomic.Uint64
	fail  sync.Once
}

// newSampler forwards every call for sample <= 1 and one call in sample
// otherwise.
func newSampler(sample int) sampler {
	if sample > 1 {
		return sampler{every: uint64(sample)}
	}
	return sampler{every: 1}
}

// take reports whether this call falls on the sampling stride.
func (s *sampler) take() bool { return (s.n.Add(1)-1)%s.every == 0 }

// report prints the first non-nil err, naming the stream. It inlines, so
// an emit that succeeds costs no call.
func (s *sampler) report(stream string, err error) {
	if err != nil {
		s.reportOnce(stream, err)
	}
}

func (s *sampler) reportOnce(stream string, err error) {
	s.fail.Do(func() {
		fmt.Fprintf(os.Stderr, "obs: %s sink failed (further errors suppressed): %v\n", stream, err)
	})
}

// sinkHook adapts an event sink into a Hook with optional 1-in-N sampling.
type sinkHook struct {
	sink Sink[CacheEvent]
	sampler
}

// NewSinkHook wraps sink as a Hook. sample <= 1 forwards every event;
// sample = N forwards one event in N (a cheap global stride, good enough
// for rate estimation on multi-million-access runs).
func NewSinkHook(sink Sink[CacheEvent], sample int) Hook {
	return &sinkHook{sink: sink, sampler: newSampler(sample)}
}

// OnCacheEvent implements Hook.
func (h *sinkHook) OnCacheEvent(e *CacheEvent) {
	if h.take() {
		h.report("trace", h.sink.Emit(e))
	}
}
