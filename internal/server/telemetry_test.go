package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// fakeClock is a hand-advanced obs.Clock for deterministic window tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// fullTelemetry returns a TelemetryConfig with every piece on, spans
// sampled at the given stride into a ring.
func fullTelemetry(t *testing.T, sampleSpec string) (TelemetryConfig, *obs.Ring[obs.Span]) {
	t.Helper()
	sink, ring, sample, err := obs.Open[obs.Span](sampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	return TelemetryConfig{
		Window:   time.Minute,
		TopK:     8,
		Spans:    obs.NewSpanTracer(obs.SpanSinkOf(sink), sample),
		SpanRing: ring,
	}, ring
}

// TestTelemetryByteIdentity is the determinism acceptance gate for the
// telemetry layer: the same HTTP replay against a telemetry-off server and
// a fully-instrumented one (windowed metrics, sketches, spans sampled @1)
// must produce identical cache behaviour — same snapshot totals and the
// same eviction sequence, key for key. Telemetry observes; it never
// perturbs a policy decision.
func TestTelemetryByteIdentity(t *testing.T) {
	spec, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	accs := workloads.LLCAccesses(spec, 6_000)

	run := func(tel TelemetryConfig) (Snapshot, []string) {
		var evictions []string
		srv, err := New(Config{
			Policy: "drrip", Shards: 2, Sets: 128, Ways: 8, MemoryBytes: 1 << 22,
			EvictObserver: func(key string, _ int64) { evictions = append(evictions, key) },
			Telemetry:     tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if _, err := Replay(accs, ReplayOptions{BaseURL: ts.URL, Client: ts.Client()}); err != nil {
			t.Fatal(err)
		}
		sn := srv.Snapshot()
		sn.Window = nil // telemetry-only field; cache behaviour is Totals + store state
		return sn, evictions
	}

	plain, evPlain := run(TelemetryConfig{})
	tel, ring := fullTelemetry(t, "ring:4096@1")
	instr, evInstr := run(tel)

	if plain != instr {
		t.Errorf("instrumented snapshot diverged:\n  off %+v\n  on  %+v", plain, instr)
	}
	if len(evPlain) == 0 {
		t.Fatal("degenerate run: no evictions")
	}
	if len(evPlain) != len(evInstr) {
		t.Fatalf("eviction counts diverged: off=%d on=%d", len(evPlain), len(evInstr))
	}
	for i := range evPlain {
		if evPlain[i] != evInstr[i] {
			t.Fatalf("eviction %d diverged: off=%q on=%q", i, evPlain[i], evInstr[i])
		}
	}
	if len(ring.Snapshot()) == 0 {
		t.Error("span ring captured nothing despite @1 sampling")
	}
}

// TestWindowReportDeterministic drives the sliding window with an injected
// clock: in-window traffic is visible with the right rates and quantile
// ordering, the global view is the fold of the shards, and advancing the
// clock past the window ages everything out.
func TestWindowReportDeterministic(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	srv := newTestServer(t, Config{
		Policy: "lru", Shards: 2, Sets: 64, Ways: 4,
		Telemetry: TelemetryConfig{Window: 10 * time.Second, Clock: clk.Now},
	})

	// 20 keys: PUT each (a fill), then GET each twice (hits), spread over
	// two buckets.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k-%d", i)
		srv.Put(key, 0, []byte("v"))
		if i == 9 {
			clk.Advance(time.Second)
		}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			if _, hit := srv.Get(fmt.Sprintf("k-%d", i), 0); !hit {
				t.Fatalf("k-%d must be resident", i)
			}
		}
	}

	rep := srv.WindowReport()
	if !rep.Enabled {
		t.Fatal("windowed metrics must report enabled")
	}
	g := rep.Global
	if g.Gets != 40 || g.GetHits != 40 || g.Puts != 20 || g.Fills != 20 {
		t.Fatalf("global window = %+v, want 40/40 gets, 20/20 puts", g)
	}
	if g.HitRatePct != 100 {
		t.Errorf("hit rate = %v, want 100", g.HitRatePct)
	}
	// Covered 2s (the clock advanced once): 60 requests / 2s.
	if rep.CoveredSec != 2 {
		t.Errorf("covered = %v s, want 2", rep.CoveredSec)
	}
	if g.QPS != 30 {
		t.Errorf("qps = %v, want 30", g.QPS)
	}
	// The global fold must equal the shard sum.
	var sg, sh uint64
	for _, s := range rep.Shards {
		sg += s.Gets
		sh += s.GetHits
	}
	if sg != g.Gets || sh != g.GetHits {
		t.Errorf("shard sum %d/%d != global %d/%d", sg, sh, g.Gets, g.GetHits)
	}

	// Snapshot carries the same global window.
	if sn := srv.Snapshot(); sn.Window == nil || sn.Window.Gets != 40 {
		t.Errorf("Snapshot.Window = %+v, want the 40-get global view", sn.Window)
	}

	// Everything ages out once the clock leaves the window.
	clk.Advance(11 * time.Second)
	if g := srv.WindowReport().Global; g.Gets != 0 || g.Puts != 0 {
		t.Errorf("aged window = %+v, want zeros", g)
	}
}

// TestWindowLatencyRecorded pins that the HTTP layer records per-shard
// request latency into the window: after traffic, the latency quantiles
// are positive and ordered.
func TestWindowLatencyRecorded(t *testing.T) {
	srv := newTestServer(t, Config{
		Telemetry: TelemetryConfig{Window: time.Minute},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	for i := 0; i < 50; i++ {
		req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/kv/k-%d", ts.URL, i), strings.NewReader("v"))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	g := srv.WindowReport().Global
	if g.Requests != 50 {
		t.Fatalf("window latency observations = %d, want 50", g.Requests)
	}
	if !(g.P50Micros > 0 && g.P50Micros <= g.P90Micros && g.P90Micros <= g.P99Micros) {
		t.Errorf("quantiles not ordered: p50=%v p90=%v p99=%v", g.P50Micros, g.P90Micros, g.P99Micros)
	}
	if g.MeanMicros <= 0 {
		t.Errorf("mean = %v, want > 0", g.MeanMicros)
	}
}

// TestTopKeysReport pins the heavy-hitter plumbing: the hottest miss key
// leads /topkeys misses (Space-Saving guarantees the top key survives),
// and budget pressure surfaces eviction heavy hitters.
func TestTopKeysReport(t *testing.T) {
	srv := newTestServer(t, Config{
		Policy: "lru", Shards: 2, Sets: 64, Ways: 4,
		MemoryBytes: 32 << 10, MaxObjectBytes: 4 << 10,
		Telemetry: TelemetryConfig{TopK: 4},
	})
	// One scorching miss key amid background misses.
	for i := 0; i < 200; i++ {
		srv.Get("hot-miss", 0)
		srv.Get(fmt.Sprintf("cold-%d", i), 0)
	}
	// Fill past the budget so evictions happen.
	val := make([]byte, 2<<10)
	for i := 0; i < 64; i++ {
		srv.Put(fmt.Sprintf("obj-%d", i), 0, val)
	}

	rep := srv.TopKeys()
	if !rep.Enabled || rep.K != 4 {
		t.Fatalf("report = %+v, want enabled with k=4", rep)
	}
	if len(rep.Misses) == 0 || rep.Misses[0].Key != "hot-miss" {
		t.Fatalf("misses = %+v, want hot-miss on top", rep.Misses)
	}
	if rep.Misses[0].Count < 200 {
		t.Errorf("hot-miss count = %d, want >= 200 (overestimate-only)", rep.Misses[0].Count)
	}
	if len(rep.Evictions) == 0 {
		t.Error("budget pressure must surface eviction heavy hitters")
	}

	// Disabled mode reports enabled=false and empty lists.
	off := newTestServer(t, Config{})
	if rep := off.TopKeys(); rep.Enabled || rep.Misses != nil {
		t.Errorf("disabled TopKeys = %+v, want empty", rep)
	}
}

// TestSpansOverHTTP pins the span pipeline end to end: sampled requests
// emit one span each with the op, outcome, shard, and phase timings, and
// /spans serves them as JSONL.
func TestSpansOverHTTP(t *testing.T) {
	tel, ring := fullTelemetry(t, "ring:256@1")
	srv := newTestServer(t, Config{Shards: 4, Telemetry: tel})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	do := func(method, key, body string) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+"/kv/"+key, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	do(http.MethodGet, "a", "")    // miss
	do(http.MethodPut, "a", "val") // stored
	do(http.MethodGet, "a", "")    // hit
	do(http.MethodDelete, "a", "") // deleted
	do(http.MethodDelete, "a", "") // absent

	spans := ring.Snapshot()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5 (@1 sampling)", len(spans))
	}
	wantOutcomes := []string{"miss", "stored", "hit", "deleted", "absent"}
	for i, sp := range spans {
		if sp.Outcome != wantOutcomes[i] {
			t.Errorf("span %d outcome = %q, want %q", i, sp.Outcome, wantOutcomes[i])
		}
		if sp.Key != "a" {
			t.Errorf("span %d key = %q", i, sp.Key)
		}
		if sp.Shard < 0 || sp.Shard >= 4 {
			t.Errorf("span %d shard = %d, want 0..3", i, sp.Shard)
		}
		if sp.TotalNs <= 0 {
			t.Errorf("span %d total = %d, want > 0", i, sp.TotalNs)
		}
		if sum := sp.LockWaitNs + sp.VictimNs + sp.StoreNs; sum > sp.TotalNs {
			t.Errorf("span %d phases (%d) exceed total (%d)", i, sum, sp.TotalNs)
		}
	}
	if spans[2].Outcome == "hit" && !spans[2].Hit {
		t.Error("hit span must carry Hit=true")
	}

	// /spans serves the ring as JSONL, one span per line.
	resp, err := client.Get(ts.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served []obs.Span
	for dec := json.NewDecoder(resp.Body); dec.More(); {
		var sp obs.Span
		if err := dec.Decode(&sp); err != nil {
			t.Fatalf("span %d: %v", len(served), err)
		}
		served = append(served, sp)
	}
	if len(served) != len(spans) {
		t.Errorf("/spans served %d spans, want %d", len(served), len(spans))
	}
}

// TestTelemetryEndpointsDisabled pins the off-mode surface: /window and
// /topkeys respond (enabled=false), /spans is absent, /stats omits the
// window block.
func TestTelemetryEndpointsDisabled(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	if code, body := get("/window"); code != 200 || !strings.Contains(body, `"enabled": false`) {
		t.Errorf("/window = %d %q", code, body)
	}
	if code, body := get("/topkeys"); code != 200 || !strings.Contains(body, `"enabled": false`) {
		t.Errorf("/topkeys = %d %q", code, body)
	}
	if code, _ := get("/spans"); code != 404 {
		t.Errorf("/spans without a ring = %d, want 404", code)
	}
	srv.Put("k", 0, []byte("v"))
	if _, body := get("/stats"); strings.Contains(body, `"window"`) {
		t.Errorf("/stats must omit the window block when telemetry is off:\n%s", body)
	}
}

// TestPrometheusEndpoint pins the exposition surface on the server mux:
// correct content type, HELP/TYPE lines for the server families, and no
// non-finite values.
func TestPrometheusEndpoint(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Put("k", 0, []byte("v"))
	srv.Get("k", 0)

	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("content type = %q, want %q", ct, obs.PrometheusContentType)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# HELP server_gets ",
		"# TYPE server_gets counter",
		"# TYPE server_bytes gauge",
		"# TYPE server_request_ns histogram",
		`server_request_ns_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("exposition contains NaN")
	}
}

// TestSpanOverheadBound measures the acceptance bound from the issue:
// spans sampled @100 (plus windowed metrics and sketches) must cost no
// more than 5% of replay throughput on 429.mcf versus telemetry off.
// Wall-clock measurement over real HTTP is noisy, so the test is opt-in:
//
//	RLCACHED_OVERHEAD_TEST=1 go test -run TestSpanOverheadBound ./internal/server
//
// Each mode runs three times interleaved and keeps its best throughput.
func TestSpanOverheadBound(t *testing.T) {
	if os.Getenv("RLCACHED_OVERHEAD_TEST") == "" {
		t.Skip("set RLCACHED_OVERHEAD_TEST=1 to run the wall-clock overhead measurement")
	}
	spec, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	accs := workloads.LLCAccesses(spec, 60_000)

	run := func(instrumented bool) float64 {
		var tel TelemetryConfig
		if instrumented {
			sink, ring, sample, err := obs.Open[obs.Span]("ring:4096@100")
			if err != nil {
				t.Fatal(err)
			}
			tel = TelemetryConfig{
				Window: time.Minute, TopK: 16,
				Spans: obs.NewSpanTracer(obs.SpanSinkOf(sink), sample), SpanRing: ring,
			}
		}
		srv, err := New(Config{
			Policy: "lru", Shards: 8, Sets: 4096, Ways: 8, MemoryBytes: 64 << 20,
			Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		rep, err := Replay(accs, ReplayOptions{BaseURL: ts.URL, Client: ts.Client()})
		if err != nil {
			t.Fatal(err)
		}
		return rep.QPS
	}

	var off, on float64
	for i := 0; i < 3; i++ {
		if q := run(false); q > off {
			off = q
		}
		if q := run(true); q > on {
			on = q
		}
	}
	loss := 100 * (1 - on/off)
	t.Logf("throughput: off=%.0f qps, on(spans@100+window+topk)=%.0f qps, overhead=%.2f%%", off, on, loss)
	if loss > 5 {
		t.Errorf("telemetry overhead %.2f%% exceeds the 5%% bound", loss)
	}
}
