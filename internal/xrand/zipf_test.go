package xrand

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// refZipfCDF builds the (n, s) CDF from scratch with the float operations
// NewZipf has always used.
func refZipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// TestZipfSharedTableAllocs: once a (n, s) table exists, another NewZipf
// of that shape reuses it instead of allocating n floats (512 KB here).
// The bytes are averaged over many calls, so an allocation elsewhere in
// the process during the loop cannot fail the test.
func TestZipfSharedTableAllocs(t *testing.T) {
	const calls = 100
	first := NewZipf(New(1), 65536, 0.9)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var last *Zipf
	for i := 0; i < calls; i++ {
		last = NewZipf(New(2), 65536, 0.9)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got >= 4096 {
		t.Errorf("a later NewZipf(65536, 0.9) allocated %d bytes, want < 4096", got)
	}
	if &last.cdf[0] != &first.cdf[0] {
		t.Error("a later NewZipf(65536, 0.9) built its own table")
	}
}

// TestZipfSharedTableBitIdentical: the shared table is bit for bit the
// table a fresh build produces, for several shapes including uniform.
func TestZipfSharedTableBitIdentical(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{1, 0.9}, {10, 0}, {400, 1.1}, {4096, 0.9}, {32768, 0.7}, {65536, 0.6}} {
		for rep := 0; rep < 2; rep++ { // the build, then a lookup
			got := NewZipf(New(3), c.n, c.s).cdf
			want := refZipfCDF(c.n, c.s)
			if len(got) != len(want) {
				t.Fatalf("n=%d s=%v: table length %d, want %d", c.n, c.s, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d s=%v rep %d: cdf[%d] = %v, fresh build %v", c.n, c.s, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestZipfConcurrentBuild: eight goroutines racing to build the same new
// shape each get a sampler whose stream equals that of a sampler on a
// freshly built table. Run under -race to check the table map's locking.
func TestZipfConcurrentBuild(t *testing.T) {
	const workers, draws, n, s = 8, 2000, 20011, 0.85
	streams := make([][]int, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			z := NewZipf(New(uint64(100+w)), n, s)
			out := make([]int, draws)
			for i := range out {
				out[i] = z.Next()
			}
			streams[w] = out
		}(w)
	}
	close(start)
	wg.Wait()
	ref := refZipfCDF(n, s)
	for w := 0; w < workers; w++ {
		z := &Zipf{cdf: ref, r: New(uint64(100 + w))}
		for i, got := range streams[w] {
			if want := z.Next(); got != want {
				t.Fatalf("worker %d draw %d = %d, fresh table gives %d", w, i, got, want)
			}
		}
	}
}
