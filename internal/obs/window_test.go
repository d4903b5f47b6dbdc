package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a hand-advanced Clock for deterministic window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestNilWindowIsNoOp pins the disabled mode: every method on a nil
// *Window is a safe no-op returning zeros.
func TestNilWindowIsNoOp(t *testing.T) {
	var w *Window
	w.RecordGet(true)
	w.RecordPut(true)
	w.RecordEvictions(3)
	w.RecordBypass()
	w.RecordLatency(100)
	sn := w.Snapshot()
	if sn.Counts.Gets != 0 || sn.QPS() != 0 || sn.LatencyQuantileNs(0.5) != 0 {
		t.Fatalf("nil window must read as zero, got %+v", sn)
	}
}

// TestWindowRotation drives an injected clock through bucket boundaries
// and checks that counts enter, age through, and finally leave the window
// deterministically.
func TestWindowRotation(t *testing.T) {
	clk := newFakeClock()
	w := NewWindow(WindowConfig{Bucket: time.Second, Buckets: 3, Now: clk.Now})

	w.RecordGet(true)
	w.RecordGet(false)
	clk.Advance(time.Second)
	w.RecordGet(true)
	w.RecordEvictions(5)

	sn := w.Snapshot()
	if sn.Counts.Gets != 3 || sn.Counts.GetHits != 2 || sn.Counts.Evictions != 5 {
		t.Fatalf("both buckets should be in-window: %+v", sn.Counts)
	}
	if got := sn.HitRatePct(); math.Abs(got-100*2.0/3.0) > 1e-9 {
		t.Errorf("hit rate = %v", got)
	}
	if sn.CoveredSec != 2 {
		t.Errorf("covered = %v, want 2s", sn.CoveredSec)
	}
	// QPS: 3 gets over the 2 covered seconds.
	if got := sn.QPS(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("qps = %v, want 1.5", got)
	}

	// Advance so the first bucket (2 gets) falls out of the 3-bucket window.
	clk.Advance(2 * time.Second)
	sn = w.Snapshot()
	if sn.Counts.Gets != 1 || sn.Counts.GetHits != 1 || sn.Counts.Evictions != 5 {
		t.Fatalf("first bucket should have aged out: %+v", sn.Counts)
	}
	if sn.CoveredSec != 3 {
		t.Errorf("covered = %v, want full 3s window", sn.CoveredSec)
	}

	// Far future: everything gone, and a recycled slot must start clean.
	clk.Advance(10 * time.Second)
	if sn = w.Snapshot(); sn.Counts.Gets != 0 || sn.Counts.Evictions != 0 {
		t.Fatalf("window should be empty: %+v", sn.Counts)
	}
	w.RecordGet(false)
	if sn = w.Snapshot(); sn.Counts.Gets != 1 || sn.Counts.GetHits != 0 {
		t.Fatalf("recycled slot must start clean: %+v", sn.Counts)
	}
}

// TestWindowLatencyQuantiles checks the pow2-bucket quantiles against
// exactly computable cases and the quantile's defining property.
func TestWindowLatencyQuantiles(t *testing.T) {
	clk := newFakeClock()
	w := NewWindow(WindowConfig{Bucket: time.Second, Buckets: 4, Now: clk.Now})
	// 100 observations of 1000ns, 1 of 1<<20 ns.
	for i := 0; i < 100; i++ {
		w.RecordLatency(1000)
	}
	w.RecordLatency(1 << 20)
	sn := w.Snapshot()
	if sn.Counts.LatCount != 101 {
		t.Fatalf("lat count = %d", sn.Counts.LatCount)
	}
	p50, p99 := sn.LatencyQuantileNs(0.50), sn.LatencyQuantileNs(0.99)
	// p50 and p99 both land in 1000's bucket (bits.Len64(1000)=10: [512,1023]).
	blo, bhi := pow2BucketRange(10)
	if p50 < float64(blo) || p50 > float64(bhi) {
		t.Errorf("p50 = %v outside [%d,%d]", p50, blo, bhi)
	}
	if p99 < float64(blo) || p99 > float64(bhi) {
		t.Errorf("p99 = %v outside [%d,%d]", p99, blo, bhi)
	}
	// The max quantile must land in the outlier's bucket.
	p100 := sn.LatencyQuantileNs(1)
	olo, ohi := pow2BucketRange(21)
	if p100 < float64(olo) || p100 > float64(ohi) {
		t.Errorf("p100 = %v outside [%d,%d]", p100, olo, ohi)
	}
	if mean := sn.MeanLatencyNs(); mean <= 1000 {
		t.Errorf("mean = %v, want > 1000", mean)
	}
	// Quantiles are monotone in q.
	last := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := sn.LatencyQuantileNs(q)
		if v < last {
			t.Errorf("quantile not monotone at q=%v: %v < %v", q, v, last)
		}
		last = v
	}
}

// TestMergeWindowSnapshots checks the per-shard -> global fold: counts
// add, covered duration is the max, derived rates follow.
func TestMergeWindowSnapshots(t *testing.T) {
	clk := newFakeClock()
	a := NewWindow(WindowConfig{Bucket: time.Second, Buckets: 4, Now: clk.Now})
	b := NewWindow(WindowConfig{Bucket: time.Second, Buckets: 4, Now: clk.Now})
	a.RecordGet(true)
	a.RecordLatency(500)
	clk.Advance(time.Second)
	b.RecordGet(false)
	b.RecordGet(false)
	b.RecordLatency(2000)

	g := MergeWindowSnapshots(a.Snapshot(), b.Snapshot())
	if g.Counts.Gets != 3 || g.Counts.GetHits != 1 || g.Counts.LatCount != 2 {
		t.Fatalf("merged counts wrong: %+v", g.Counts)
	}
	if g.CoveredSec != 2 {
		t.Errorf("merged covered = %v, want max(2,1)=2", g.CoveredSec)
	}
	if q := g.LatencyQuantileNs(1); q < 1024 {
		t.Errorf("merged p100 = %v, want in 2000's bucket", q)
	}
}

// TestWindowConcurrent is the -race stress test: writers hammer every
// Record method across rotating buckets while readers snapshot. The final
// quiesced snapshot must account for every event.
//
// The clock is a counter the writers advance by one tick per round, so
// buckets rotate (40 of them over the test) while the whole run stays
// inside the 100-bucket window however slowly it executes. On a wall
// clock the test's speed would decide its outcome: Snapshot sums every
// slot under the window mutex, so the readers hold up the writers, and a
// run slower than the window loses its oldest buckets.
func TestWindowConcurrent(t *testing.T) {
	const writers = 8
	const perWriter = 5_000
	const tick = time.Microsecond
	var ticks atomic.Int64
	base := time.Unix(1_000_000, 0)
	now := func() time.Time { return base.Add(time.Duration(ticks.Load()) * tick) }
	w := NewWindow(WindowConfig{Bucket: time.Millisecond, Buckets: 100, Now: now})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snaps atomic.Uint64

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = w.Snapshot().QPS()
					snaps.Add(1)
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for i := 0; i < writers; i++ {
		ww.Add(1)
		go func(i int) {
			defer ww.Done()
			for j := 0; j < perWriter; j++ {
				w.RecordGet(j%2 == 0)
				w.RecordPut(j%3 == 0)
				w.RecordEvictions(1)
				w.RecordLatency(uint64(j))
				ticks.Add(1)
			}
		}(i)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	sn := w.Snapshot()
	want := uint64(writers * perWriter)
	if sn.Counts.Gets != want || sn.Counts.Puts != want ||
		sn.Counts.Evictions != want || sn.Counts.LatCount != want {
		t.Fatalf("lost events under concurrency: %+v (want %d each)", sn.Counts, want)
	}
	if sn.Counts.GetHits != want/2 {
		t.Errorf("get hits = %d, want %d", sn.Counts.GetHits, want/2)
	}
	if snaps.Load() == 0 {
		t.Error("reader goroutines never snapshotted")
	}
	if covered := time.Duration(sn.CoveredSec * float64(time.Second)); covered < 40*time.Millisecond {
		t.Errorf("covered %v, want the 40 buckets the clock rotated through", covered)
	}
}
