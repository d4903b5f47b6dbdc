package obs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestNilSpanTracerAndSpan pins the disabled mode: nil tracer samples
// nothing, and every method on a nil *ActiveSpan is a safe no-op.
func TestNilSpanTracerAndSpan(t *testing.T) {
	var tr *SpanTracer
	sp := tr.Start(SpanGet)
	if sp != nil {
		t.Fatal("nil tracer must not sample")
	}
	sp.SetKey("k")
	sp.SetShard(3)
	sp.Mark()
	sp.EndPhase(PhaseLockWait)
	sp.Finish("hit", true)
	if tr.Sampled() != 0 {
		t.Error("nil tracer sampled != 0")
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
}

// TestSpanSamplingStride: sample=N emits exactly ceil(requests/N) spans,
// starting with the first request.
func TestSpanSamplingStride(t *testing.T) {
	ring := NewRing[Span](100)
	tr := NewSpanTracer(SpanSinkOf(ring), 10)
	sampled := 0
	for i := 0; i < 95; i++ {
		if sp := tr.Start(SpanGet); sp != nil {
			sampled++
			sp.Finish("miss", false)
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 95 at @10, want 10", sampled)
	}
	if n := len(ring.Snapshot()); n != 10 || tr.Sampled() != 10 {
		t.Errorf("ring holds %d, tracer sampled %d, want 10", n, tr.Sampled())
	}
	// Sequence numbers are dense.
	for i, s := range ring.Snapshot() {
		if s.Seq != uint64(i) {
			t.Errorf("span %d has seq %d", i, s.Seq)
		}
	}
}

// TestSpanPhases: phase times accumulate where charged and never exceed
// the total.
func TestSpanPhases(t *testing.T) {
	ring := NewRing[Span](4)
	tr := NewSpanTracer(SpanSinkOf(ring), 1)
	sp := tr.Start(SpanPut)
	if sp == nil {
		t.Fatal("sample=1 must always sample")
	}
	sp.SetKey("key1")
	sp.SetShard(2)
	sp.Mark()
	time.Sleep(2 * time.Millisecond)
	sp.EndPhase(PhaseLockWait)
	time.Sleep(time.Millisecond)
	sp.EndPhase(PhaseVictim)
	sp.Mark() // skip some unattributed time
	sp.EndPhase(PhaseStore)
	sp.Finish("stored", false)

	spans := ring.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.Op != SpanPut || s.Key != "key1" || s.Shard != 2 || s.Outcome != "stored" {
		t.Errorf("span fields wrong: %+v", s)
	}
	if s.LockWaitNs < int64(time.Millisecond) {
		t.Errorf("lock wait %dns, slept 2ms", s.LockWaitNs)
	}
	if s.VictimNs <= 0 {
		t.Errorf("victim phase not charged: %+v", s)
	}
	if sum := s.LockWaitNs + s.VictimNs + s.StoreNs; sum > s.TotalNs {
		t.Errorf("phases %dns exceed total %dns", sum, s.TotalNs)
	}
	if s.StoreNs < 0 {
		t.Errorf("store phase negative: %+v", s)
	}
}

// TestOpenSpanSinkSpecs: spans speak the event sinks' spec grammar through
// Open[Span], and the JSONL path round-trips spans through ReadJSONL.
func TestOpenSpanSinkSpecs(t *testing.T) {
	if _, _, _, err := Open[Span]("ring:0"); err == nil {
		t.Error("ring:0 must be rejected")
	}
	if _, _, _, err := Open[Span]("jsonl:x@bad"); err == nil {
		t.Error("bad sample factor must be rejected")
	}
	sink, ring, sample, err := Open[Span]("ring:8@25")
	if err != nil {
		t.Fatal(err)
	}
	if ring == nil || sample != 25 {
		t.Fatalf("ring spec: ring=%v sample=%d", ring, sample)
	}
	sink.Close()

	sink, ring, sample, err = Open[Span]("discard@100")
	if err != nil || ring != nil || sample != 100 {
		t.Fatalf("discard spec: %v ring=%v sample=%d", err, ring, sample)
	}
	sink.Close()

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	sink, ring, sample, err = Open[Span]("jsonl:" + path)
	if err != nil || ring != nil || sample != 1 {
		t.Fatalf("jsonl spec: %v ring=%v sample=%d", err, ring, sample)
	}
	tr := NewSpanTracer(SpanSinkOf(sink), 1)
	for i := 0; i < 3; i++ {
		sp := tr.Start(SpanDelete)
		sp.SetKey("k")
		sp.Finish("deleted", false)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := ReadJSONL[Span](f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("round-tripped %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Op != SpanDelete || s.Key != "k" || s.Seq != uint64(i) || s.Outcome != "deleted" {
			t.Errorf("span %d = %+v", i, s)
		}
	}
}
