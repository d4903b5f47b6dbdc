package obs

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"
)

// fullEvent exercises every CacheEvent field, including all victim
// features, so a field silently dropped by the JSON tags fails deep-equal.
func fullEvent() CacheEvent {
	return CacheEvent{
		Kind:           EvEvict,
		Seq:            123456,
		PC:             0x400abc,
		Addr:           0xdeadbeef00,
		Type:           2,
		Set:            511,
		Way:            15,
		Policy:         "rlr",
		VictimBlock:    0x37ff,
		VictimDirty:    true,
		VictimAge:      99,
		VictimPreuse:   7,
		VictimHits:     3,
		VictimRecency:  12,
		VictimLastType: 1,
	}
}

// TestCacheEventRoundTrip is the satellite requirement: encode a batch of
// events through the JSONL sink, decode with ReadJSONL, deep-equal.
func TestCacheEventRoundTrip(t *testing.T) {
	events := []CacheEvent{
		fullEvent(),
		{Kind: EvHit, Seq: 1, Addr: 64, Type: 0, Set: 3, Way: 2, Policy: "lru"},
		{Kind: EvMiss, Seq: 2, Addr: 128, Set: 4, Way: -1},
		{Kind: EvBypass, Seq: 3, Addr: 192, Set: 5, Way: -1, Policy: "belady-bypass"},
		{Kind: EvDecision, Seq: 4, Addr: 256, Set: 6, Way: 0, Policy: "rlr", VictimBlock: 9},
	}
	var buf bytes.Buffer
	sink := NewJSONL[CacheEvent](&buf)
	for i := range events {
		if err := sink.Emit(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL[CacheEvent](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, events)
	}
}

func TestEventKindWireNames(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		b, err := k.MarshalJSON()
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		var back EventKind
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("kind %d (%s): %v", k, b, err)
		}
		if back != k {
			t.Errorf("kind %d round-tripped to %d", k, back)
		}
	}
	var k EventKind
	if err := k.UnmarshalJSON([]byte(`"nonsense"`)); err == nil {
		t.Error("unknown kind name must fail")
	}
	if err := k.UnmarshalJSON([]byte(`7`)); err == nil {
		t.Error("numeric kind must fail")
	}
	if _, err := numEventKinds.MarshalJSON(); err == nil {
		t.Error("out-of-range kind must fail to marshal")
	}
}

// TestManifestRoundTrip writes one record of every kind and deep-equals the
// decoded stream, covering the nested BuildInfo pointer and the
// non-omitempty numeric telemetry fields (a 0.0 loss must survive).
func TestManifestRoundTrip(t *testing.T) {
	records := []ManifestRecord{
		{
			Kind: RecRunStart, TimeUnixMS: 1000,
			Fingerprint: "abc123", Workload: "429.mcf", Accesses: 50000, Epochs: 3,
			Meta: &BuildInfo{GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8, NumCPU: 8},
		},
		{
			Kind: RecEpoch, TimeUnixMS: 2000,
			Epoch: 0, Steps: 50000, Loss: 0, MeanReward: -0.25, Epsilon: 0.1,
			HitRate: 31.5, WeightNorm: 12.75, Decisions: 420, Batches: 17,
		},
		{Kind: RecCheckpointSave, TimeUnixMS: 3000, Path: "ckpt.bin", Epoch: 1},
		{Kind: RecResume, TimeUnixMS: 4000, Path: "ckpt.bin", Steps: 50000},
		{Kind: RecRunEnd, TimeUnixMS: 5000, HitRate: 40.25, WeightNorm: 13.5, Err: "interrupted"},
	}
	var buf bytes.Buffer
	m := NewManifest(&buf)
	for _, rec := range records {
		if err := m.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL[ManifestRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, records)
	}
}

func TestManifestStampsTime(t *testing.T) {
	var buf bytes.Buffer
	m := NewManifest(&buf)
	m.now = func() time.Time { return time.UnixMilli(777) }
	if err := m.Write(ManifestRecord{Kind: RecRunEnd}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL[ManifestRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TimeUnixMS != 777 {
		t.Errorf("records = %+v, want one stamped at 777", recs)
	}
}

// TestNilManifest pins that the disabled manifest path (no -manifest flag)
// is a total no-op rather than a nil dereference.
func TestNilManifest(t *testing.T) {
	m, err := OpenManifest("")
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatal("empty path must yield a nil manifest")
	}
	if err := m.Write(ManifestRecord{Kind: RecEpoch}); err != nil {
		t.Error(err)
	}
	if err := m.Close(); err != nil {
		t.Error(err)
	}
}

func TestReadManifestStrict(t *testing.T) {
	in := strings.NewReader(`{"kind":"run_start"}` + "\n" + `{"kind":` + "\n")
	recs, err := ReadJSONL[ManifestRecord](in)
	if err == nil {
		t.Fatal("malformed line must fail")
	}
	if len(recs) != 1 {
		t.Errorf("got %d records before the error, want 1", len(recs))
	}
	if !strings.Contains(err.Error(), "record 1") {
		t.Errorf("error %q does not name the failing record", err)
	}
}

func TestOpenSinkSpecs(t *testing.T) {
	dir := t.TempDir()
	kindOf := func(s Sink[CacheEvent]) string {
		switch s.(type) {
		case Discard[CacheEvent]:
			return "discard"
		case *Ring[CacheEvent]:
			return "ring"
		case *JSONL[CacheEvent]:
			return "jsonl"
		}
		return fmt.Sprintf("%T", s)
	}
	cases := []struct {
		spec   string
		sample int
		kind   string
	}{
		{"discard", 1, "discard"},
		{"discard@100", 100, "discard"},
		{"ring:16", 1, "ring"},
		{"ring:16@3", 3, "ring"},
		{"jsonl:" + filepath.Join(dir, "a.jsonl"), 1, "jsonl"},
		{filepath.Join(dir, "b.jsonl"), 1, "jsonl"},
		{filepath.Join(dir, "c.jsonl") + "@7", 7, "jsonl"},
	}
	for _, c := range cases {
		sink, ring, sample, err := Open[CacheEvent](c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if sample != c.sample {
			t.Errorf("%s: sample = %d, want %d", c.spec, sample, c.sample)
		}
		if got := kindOf(sink); got != c.kind {
			t.Errorf("%s: sink kind %s, want %s", c.spec, got, c.kind)
		}
		if (ring != nil) != (c.kind == "ring") || (ring != nil && Sink[CacheEvent](ring) != sink) {
			t.Errorf("%s: ring = %v, want the sink itself exactly for ring specs", c.spec, ring)
		}
		sink.Close()
	}
	for _, bad := range []string{"", "jsonl:", "ring:zero", "ring:0", "discard@0", "discard@x"} {
		if _, _, _, err := Open[CacheEvent](bad); err == nil {
			t.Errorf("spec %q must fail", bad)
		}
	}
}

// TestRingSink runs one table over both record types that travel through
// rings: the snapshot holds the last min(size, emitted) records, oldest
// first.
func TestRingSink(t *testing.T) {
	t.Run("events", func(t *testing.T) {
		checkRing(t, func(i uint64) CacheEvent { return CacheEvent{Seq: i} }, func(e CacheEvent) uint64 { return e.Seq })
	})
	t.Run("spans", func(t *testing.T) {
		checkRing(t, func(i uint64) Span { return Span{Seq: i} }, func(s Span) uint64 { return s.Seq })
	})
}

// checkRing emits records 1..emit, built by mk, into rings of several
// sizes and checks each snapshot's length and order through seq.
func checkRing[T any](t *testing.T, mk func(uint64) T, seq func(T) uint64) {
	for _, c := range []struct{ size, emit int }{{3, 0}, {3, 2}, {3, 3}, {3, 5}, {3, 7}, {1, 4}} {
		r := NewRing[T](c.size)
		for i := 1; i <= c.emit; i++ {
			rec := mk(uint64(i))
			if err := r.Emit(&rec); err != nil {
				t.Fatal(err)
			}
		}
		snap := r.Snapshot()
		kept := min(c.size, c.emit)
		if len(snap) != kept {
			t.Errorf("size %d, %d emitted: snapshot holds %d, want %d", c.size, c.emit, len(snap), kept)
			continue
		}
		for j, rec := range snap {
			if want := uint64(c.emit - kept + 1 + j); seq(rec) != want {
				t.Errorf("size %d, %d emitted: snapshot[%d] is record %d, want %d", c.size, c.emit, j, seq(rec), want)
			}
		}
	}
}

// countSink counts emissions (for the sampling tests); safe for
// concurrent Emit.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Emit(*CacheEvent) error { s.n.Add(1); return nil }
func (s *countSink) Close() error           { return nil }

func TestSinkHookSampling(t *testing.T) {
	s := &countSink{}
	h := NewSinkHook(s, 3)
	e := CacheEvent{}
	for i := 0; i < 10; i++ {
		h.OnCacheEvent(&e)
	}
	if n := s.n.Load(); n != 4 { // events 0, 3, 6, 9
		t.Errorf("1-in-3 sampling forwarded %d of 10 events, want 4", n)
	}
	s2 := &countSink{}
	NewSinkHook(s2, 0).OnCacheEvent(&e)
	if n := s2.n.Load(); n != 1 {
		t.Errorf("sample<=1 must forward every event, got %d", n)
	}
}

// TestSinkHookSamplingConcurrent is the regression test for over-sampling
// under concurrent emitters (parallel experiment sweeps): the stride must
// forward exactly one event in N however the calls interleave. A hook that
// reads its counter and increments it in two steps lets several
// goroutines see the same on-stride value and forwards too many.
func TestSinkHookSamplingConcurrent(t *testing.T) {
	const goroutines, perG, every = 8, 100_000, 10
	s := &countSink{}
	h := NewSinkHook(s, every)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e CacheEvent
			for i := 0; i < perG; i++ {
				h.OnCacheEvent(&e)
			}
		}()
	}
	wg.Wait()
	if n, want := s.n.Load(), int64(goroutines*perG/every); n != want {
		t.Errorf("%d goroutines x %d events at @%d forwarded %d, want %d", goroutines, perG, every, n, want)
	}
}

// FuzzCacheEventRoundTrip is the satellite fuzz seed: any valid event must
// survive encode→decode unchanged.
func FuzzCacheEventRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(0x400), uint64(64), uint8(0), uint32(0), int(-1), "lru", uint64(0), false, uint32(0))
	f.Add(uint8(3), uint64(99), uint64(0), uint64(0xfff0), uint8(3), uint32(2047), int(15), "rlr", uint64(512), true, uint32(88))
	f.Add(uint8(5), ^uint64(0), ^uint64(0), ^uint64(0), uint8(255), ^uint32(0), int(1<<20), "", ^uint64(0), true, ^uint32(0))
	f.Fuzz(func(t *testing.T, kind uint8, seq, pc, addr uint64, typ uint8, set uint32, way int, pol string, vblock uint64, vdirty bool, vage uint32) {
		if !utf8.ValidString(pol) {
			t.Skip("encoding/json replaces invalid UTF-8; not a round-trip input")
		}
		e := CacheEvent{
			Kind: EventKind(kind % uint8(numEventKinds)),
			Seq:  seq, PC: pc, Addr: addr, Type: typ, Set: set, Way: way, Policy: pol,
			VictimBlock: vblock, VictimDirty: vdirty, VictimAge: vage,
		}
		var buf bytes.Buffer
		sink := NewJSONL[CacheEvent](&buf)
		if err := sink.Emit(&e); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSONL[CacheEvent](&buf)
		if err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], e) {
			t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, e)
		}
	})
}
