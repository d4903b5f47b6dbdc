package obs

import (
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe: a nil *Counter (the disabled mode) is a no-op, so call sites
// never branch on whether observability is on.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, helpers in use).
// Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds v=0
// and bucket i≥1 holds v in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a fixed power-of-two-bucketed histogram for non-negative
// integer observations (reuse distances, set occupancies, victim ages).
// Observe is one atomic add per bucket plus count/sum — allocation-free and
// safe for concurrent use. Nil-safe like Counter.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns a copy of the non-zero buckets as (upper-bound, count)
// pairs; the upper bound of bucket i is 2^i - 1 (inclusive).
func (h *Histogram) Buckets() []BucketCount {
	if h == nil {
		return nil
	}
	var out []BucketCount
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			_, hi := pow2BucketRange(i)
			out = append(out, BucketCount{UpperBound: hi, Count: n})
		}
	}
	return out
}

// BucketCount is one histogram bucket: Count observations ≤ UpperBound
// (and above the previous bucket's bound).
type BucketCount struct {
	UpperBound uint64
	Count      uint64
}

// Registry is a named collection of metrics. Metric resolution
// (Counter/Gauge/Histogram) creates on first use and is mutex-guarded;
// updates on the returned metrics are lock-free atomics. A nil *Registry —
// what Metrics() returns while disabled — resolves every name to nil, and
// the nil metrics are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return resolve(r, r.counters, name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return resolve(r, r.gauges, name)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return resolve(r, r.hists, name)
}

// resolve returns the metric named name in one of r's maps, creating it on
// first use.
func resolve[M any](r *Registry, metrics map[string]*M, name string) *M {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := metrics[name]
	if !ok {
		m = new(M)
		metrics[name] = m
	}
	return m
}

// snapshot returns all metric names with rendered values, sorted by name.
func (r *Registry) snapshot() []struct{ name, value string } {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []struct{ name, value string }
	for n, c := range r.counters {
		out = append(out, struct{ name, value string }{n, fmt.Sprintf("%d", c.Value())})
	}
	for n, g := range r.gauges {
		out = append(out, struct{ name, value string }{n, fmt.Sprintf("%d", g.Value())})
	}
	for n, h := range r.hists {
		out = append(out, struct{ name, value string }{n + "_count", fmt.Sprintf("%d", h.Count())})
		out = append(out, struct{ name, value string }{n + "_sum", fmt.Sprintf("%d", h.Sum())})
		for _, b := range h.Buckets() {
			out = append(out, struct{ name, value string }{
				fmt.Sprintf("%s_bucket{le=%q}", n, fmt.Sprintf("%d", b.UpperBound)),
				fmt.Sprintf("%d", b.Count),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteText dumps every metric as one "name value" line, sorted by name —
// the /metrics endpoint's format. Histograms expand into _count, _sum, and
// cumulative-free per-bucket lines.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.snapshot() {
		if _, err := fmt.Fprintf(w, "%s %s\n", m.name, m.value); err != nil {
			return err
		}
	}
	return nil
}

// expvarOnce guards the one-time expvar publication (expvar panics on
// duplicate names).
var expvarOnce sync.Once

// PublishExpvar exposes the default registry under the expvar name "obs"
// (served at /debug/vars). Safe to call more than once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any {
			vals := map[string]string{}
			for _, m := range def.snapshot() {
				vals[m.name] = m.value
			}
			return vals
		}))
	})
}
