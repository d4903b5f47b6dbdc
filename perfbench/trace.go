package main

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// clockCost is the wall time one empty timed region reads, subtracted from
// every sample so that sub-100 ns calls are not inflated by the clock.
var clockCost time.Duration

// calibrateClock measures clockCost as the median of many empty regions.
func calibrateClock() {
	const n = 20001
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	sort.Float64s(xs)
	clockCost = time.Duration(xs[n/2])
}

// timer is a sampled layer timer: it counts every call and times every
// stride-th one, so its total is the sampled mean scaled by the call count.
// A timer is used by one goroutine at a time (its owner's lock or
// goroutine orders the accesses).
type timer struct {
	stride  uint64
	calls   uint64
	sampled uint64
	ns      float64
}

// tick counts a call and reports whether to time it.
func (t *timer) tick() bool {
	t.calls++
	return t.calls%t.stride == 0
}

// since adds the sample that started at t0.
func (t *timer) since(t0 time.Time) {
	d := time.Since(t0) - clockCost
	if d < 0 {
		d = 0
	}
	t.sampled++
	t.ns += float64(d)
}

// meanNs is the mean sampled call time in nanoseconds.
func (t *timer) meanNs() float64 {
	if t.sampled == 0 {
		return 0
	}
	return t.ns / float64(t.sampled)
}

// totalNs estimates the time of every call.
func (t *timer) totalNs() float64 { return t.meanNs() * float64(t.calls) }

// tracer holds the timers of one run's traced rounds. Its timers read the
// wall clock. covered is the wall time spent inside top-level calls into
// the program and wall the wall time of the traced rounds; their ratio is
// bench.layer_coverage_pct.
type tracer struct {
	timers  map[string]*timer
	covered float64
	wall    float64
}

func newTracer() *tracer { return &tracer{timers: map[string]*timer{}} }

// timer returns the named timer, creating it with the given sampling
// stride.
func (tr *tracer) timer(name string, stride uint64) *timer {
	t, ok := tr.timers[name]
	if !ok {
		t = &timer{stride: stride}
		tr.timers[name] = t
	}
	return t
}

// span times one top-level call into the program on both clocks; its
// wall time feeds the named timer and counts as covered.
func (tr *tracer) span(name string, fn func()) interval {
	t0 := readClocks()
	fn()
	d := t0.elapsed()
	t := tr.timer(name, 1)
	t.calls++
	t.sampled++
	t.ns += float64(d.wall)
	tr.covered += d.wall.Seconds()
	return d
}

// sum adds the estimated totals of the named timers.
func (tr *tracer) sum(names ...string) float64 {
	var s float64
	for _, n := range names {
		if t, ok := tr.timers[n]; ok {
			s += t.totalNs()
		}
	}
	return s
}

// policyStride samples one Victim, Update or NextAfter call in 64: these
// calls take tens to hundreds of nanoseconds, so timing each would double
// them.
const policyStride = 64

// timedPolicy is a policy.Policy whose Victim and Update calls feed
// sampled timers.
type timedPolicy struct {
	policy.Policy
	victim, update *timer
}

func newTimedPolicy(p policy.Policy, victim, update *timer) *timedPolicy {
	return &timedPolicy{Policy: p, victim: victim, update: update}
}

func (p *timedPolicy) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	if !p.victim.tick() {
		return p.Policy.Victim(ctx, set)
	}
	t0 := time.Now()
	w := p.Policy.Victim(ctx, set)
	p.victim.since(t0)
	return w
}

func (p *timedPolicy) Update(ctx policy.AccessCtx, set *cache.Set, way int, hit bool) {
	if !p.update.tick() {
		p.Policy.Update(ctx, set, way, hit)
		return
	}
	t0 := time.Now()
	p.Policy.Update(ctx, set, way, hit)
	p.update.since(t0)
}

// timedSource is a uarch.InstrSource whose Next calls feed a sampled timer.
type timedSource struct {
	src uarch.InstrSource
	t   *timer
}

// sourceStride samples one Next call in 64, for the same reason.
const sourceStride = 64

func (s *timedSource) Next() trace.Instr {
	if !s.t.tick() {
		return s.src.Next()
	}
	t0 := time.Now()
	in := s.src.Next()
	s.t.since(t0)
	return in
}

// timedChain is a policy.NextUseChain whose NextAfter calls feed a sampled
// timer.
type timedChain struct {
	policy.NextUseChain
	t *timer
}

func (c *timedChain) NextAfter(seq uint64) uint64 {
	if !c.t.tick() {
		return c.NextUseChain.NextAfter(seq)
	}
	t0 := time.Now()
	n := c.NextUseChain.NextAfter(seq)
	c.t.since(t0)
	return n
}

// handlerTimer is HTTP middleware that times every request the server
// handles. Handlers run on server goroutines, so its sums are atomic.
type handlerTimer struct {
	next  http.Handler
	calls atomic.Int64
	ns    atomic.Int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.ns.Add(int64(time.Since(t0)))
	h.calls.Add(1)
}

// spanSums is an obs.SpanSink that sums the server's sampled request spans.
type spanSums struct {
	mu                      sync.Mutex
	n                       int64
	lockNs, victimNs, store int64
}

func (s *spanSums) EmitSpan(sp *obs.Span) error {
	s.mu.Lock()
	s.n++
	s.lockNs += sp.LockWaitNs
	s.victimNs += sp.VictimNs
	s.store += sp.StoreNs
	s.mu.Unlock()
	return nil
}

func (s *spanSums) Close() error { return nil }
