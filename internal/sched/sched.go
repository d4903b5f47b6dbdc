// Package sched is the deterministic parallel-execution engine behind the
// experiment harness. The (workload × policy) grid every runner walks is
// embarrassingly parallel — each cell is an independent, seeded,
// deterministic simulation — so the engine fans cells out over a bounded
// worker pool and reassembles results in index order, guaranteeing that a
// parallel run produces byte-identical tables to a serial one.
//
// Design:
//
//   - One process-wide token pool bounds total concurrency at Workers()
//     goroutines, even across nested ForEach/Map/Stream calls: a call
//     claims helper tokens non-blockingly and always keeps working on the
//     caller's own goroutine, so nesting degrades to inline serial
//     execution instead of deadlocking or oversubscribing.
//   - Results are written to per-index slots and assembled in order, so
//     output never depends on goroutine interleaving.
//   - On error the pool stops handing out new indices and returns the
//     error of the lowest-indexed failed job (the one a serial run would
//     have hit first).
//   - Memo is a sharded, singleflight-backed memo cache: concurrent calls
//     for the same key block on one computation instead of duplicating it
//     or serializing the whole table behind a single lock.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// poolMetrics resolves the pool's observability instruments. Resolution
// happens once per ForEach/Stream call (not per job) and yields nil no-op
// metrics while observability is disabled; updates are lock-free atomics.
type poolMetrics struct {
	jobs     *obs.Counter // sched_jobs_total: grid cells started
	failures *obs.Counter // sched_job_failures_total: cells that errored or panicked
	inflight *obs.Gauge   // sched_jobs_inflight: cells currently executing
}

func newPoolMetrics() poolMetrics {
	m := obs.Metrics()
	return poolMetrics{
		jobs:     m.Counter("sched_jobs_total"),
		failures: m.Counter("sched_job_failures_total"),
		inflight: m.Gauge("sched_jobs_inflight"),
	}
}

// PanicError is a panic recovered from a grid job, converted into that
// job's error so one faulty cell cannot take down the whole sweep (or the
// process). Index is the job's grid index, or -1 for jobs run outside a
// grid (e.g. under a Deadline wrapper).
type PanicError struct {
	Index int
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// protect runs fn(i), converting a panic into a *PanicError. Every job the
// pool runs goes through protect, so a panicking cell fails like an
// erroring cell: other cells complete and the error surfaces with
// lowest-index determinism intact.
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// protectVal is protect for value-returning jobs.
func protectVal[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// workerOverride holds the explicit -jobs override; 0 means "use
// GOMAXPROCS".
var workerOverride atomic.Int64

// SetWorkers overrides the pool size (the -jobs flag). n <= 0 restores the
// GOMAXPROCS default. Safe to call concurrently; takes effect for
// subsequent ForEach/Map/Stream calls.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// Workers reports the effective pool size: the SetWorkers override if set,
// else GOMAXPROCS.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// tokens is the process-wide helper-goroutine budget. Every ForEach call
// runs work on its caller's goroutine for free; extra goroutines each cost
// one token, and the total outstanding is capped at Workers()-1 so the
// whole process never runs more than Workers() jobs at once, no matter how
// calls nest.
var tokens struct {
	mu    sync.Mutex
	inUse int
}

func acquireToken() bool {
	tokens.mu.Lock()
	defer tokens.mu.Unlock()
	if tokens.inUse >= Workers()-1 {
		return false
	}
	tokens.inUse++
	obs.Metrics().Gauge("sched_helpers_in_use").Set(int64(tokens.inUse))
	return true
}

func releaseToken() {
	tokens.mu.Lock()
	tokens.inUse--
	obs.Metrics().Gauge("sched_helpers_in_use").Set(int64(tokens.inUse))
	tokens.mu.Unlock()
}

// firstError tracks the error of the lowest-indexed failed job, matching
// what a serial left-to-right run would have returned.
type firstError struct {
	mu  sync.Mutex
	idx int
	err error
}

func (f *firstError) record(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.idx {
		f.idx, f.err = i, err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// ForEach runs fn(i) for every i in [0, n) on the bounded pool and returns
// the first error (by index) or nil. Cancellation is deterministic: after
// a failure at index k, indices above k are skipped but indices below k
// still run (a serial left-to-right loop would have run them), so the
// returned error is always the one the serial run would have hit first.
// With Workers() == 1 (or no free tokens) it degrades to a plain serial
// loop on the caller's goroutine.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		next    atomic.Int64
		minFail atomic.Int64 // lowest failed index so far; n = none
		ferr    firstError
		wg      sync.WaitGroup
	)
	pm := newPoolMetrics()
	minFail.Store(int64(n))
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if int64(i) > minFail.Load() {
				continue // cancelled: a lower index already failed
			}
			pm.jobs.Inc()
			pm.inflight.Add(1)
			err := protect(i, fn)
			pm.inflight.Add(-1)
			if err != nil {
				pm.failures.Inc()
				ferr.record(i, err)
				for {
					m := minFail.Load()
					if int64(i) >= m || minFail.CompareAndSwap(m, int64(i)) {
						break
					}
				}
			}
		}
	}
	for h := 0; h < n-1 && acquireToken(); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseToken()
			work()
		}()
	}
	work() // the caller always participates
	wg.Wait()
	return ferr.get()
}

// Map runs fn for every index and assembles the results in index order, so
// the output slice is identical to a serial loop's regardless of pool size.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream runs fn(i) for every i in [0, n) concurrently and calls
// emit(i, v) in strictly increasing index order as results become
// available — the streaming analogue of Map, for drivers that print
// tables in presentation order while later experiments still run. emit is
// always called on the caller's goroutine. An fn error stops the stream
// (indices before it are still emitted); an emit error stops it too.
func Stream[T any](n int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	// Claim helpers first: with none available, run fully serial so each
	// result is emitted the moment it is computed.
	helpers := 0
	for ; helpers < n && helpers < Workers()-1 && acquireToken(); helpers++ {
	}
	pm := newPoolMetrics()
	if helpers == 0 {
		for i := 0; i < n; i++ {
			pm.jobs.Inc()
			pm.inflight.Add(1)
			v, err := protectVal(i, fn)
			pm.inflight.Add(-1)
			if err != nil {
				pm.failures.Inc()
				return err
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	// Helpers compute into per-index slots; the caller's goroutine emits
	// in order. After a failure at index k, indices above k are drained as
	// "skipped" (so the emit loop never blocks on a slot that will never
	// be filled) while indices below k still run, keeping the returned
	// error identical to the serial run's.
	results := make([]T, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var (
		next    atomic.Int64
		minFail atomic.Int64 // lowest failed/cancelled index; n = none
		ferr    firstError
		wg      sync.WaitGroup
	)
	minFail.Store(int64(n))
	lowerFail := func(i int) {
		for {
			m := minFail.Load()
			if int64(i) >= m || minFail.CompareAndSwap(m, int64(i)) {
				return
			}
		}
	}
	errSkipped := fmt.Errorf("sched: job skipped after earlier failure")
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if int64(i) > minFail.Load() {
				errs[i] = errSkipped
				close(done[i])
				continue
			}
			pm.jobs.Inc()
			pm.inflight.Add(1)
			v, err := protectVal(i, fn)
			pm.inflight.Add(-1)
			results[i], errs[i] = v, err
			if err != nil {
				pm.failures.Inc()
				ferr.record(i, err)
				lowerFail(i)
			}
			close(done[i])
		}
	}
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseToken()
			work()
		}()
	}
	var emitErr error
	for i := 0; i < n; i++ {
		<-done[i]
		if errs[i] != nil {
			break
		}
		if err := emit(i, results[i]); err != nil {
			emitErr = err
			lowerFail(i) // cancel everything after the failed emission
			break
		}
	}
	wg.Wait()
	if err := ferr.get(); err != nil {
		return err
	}
	return emitErr
}
