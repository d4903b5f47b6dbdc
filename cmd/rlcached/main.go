// Command rlcached serves the policy-zoo cache over HTTP: a key/value
// cache whose eviction runs any registered replacement policy (lru, drrip,
// ship, hawkeye, cbr, rlr, ...) over a sharded, byte-budgeted synthetic
// set geometry. See internal/server for the protocol.
//
// Usage:
//
//	rlcached                                  # lru on :8940, 256 MiB
//	rlcached -policy drrip -shards 4 -mem-mb 512
//	rlcached -addr 127.0.0.1:0 -addr-file a   # ephemeral port for scripts
//	rlcached -obs-trace ring:4096@100         # sample request spans to /spans
//
// The server mounts /kv/<key> (GET/PUT/DELETE), /stats (JSON), /metrics
// (obs registry; ?format=prometheus for the exposition format), /window
// (sliding-window metrics), /topkeys (heavy-hitter keys), /spans (recent
// sampled spans, ring sinks only), and /healthz on -addr.
// Windowed metrics and heavy-hitter sketches are on by default (-window,
// -topk); span tracing is opt-in (-obs-trace, the sink grammar every CLI
// shares). `obstool top -addr URL` renders the live view.
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	_ "repro/internal/core" // registers rlr / rlr-unopt / rlr-mc
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8940", "listen address (use :0 for an ephemeral port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file (for scripts)")
		polName   = flag.String("policy", "lru", "replacement policy (internal/policy registry name)")
		shards    = flag.Int("shards", 0, "tag shards, power of two (0 = NumCPU rounded down to a power of two)")
		sets      = flag.Int("sets", 4096, "total synthetic sets across shards (power of two)")
		ways      = flag.Int("ways", 16, "ways per synthetic set")
		memMB     = flag.Int64("mem-mb", 256, "total byte budget in MiB, split across shards")
		maxObject = flag.Int64("max-object", 0, "admission bound in bytes; larger PUTs bypass (0 = budget/shards/4)")

		window   = flag.Duration("window", time.Minute, "sliding-window metrics span for /window (0 disables)")
		topK     = flag.Int("topk", 16, "heavy-hitter keys tracked per shard for /topkeys (0 disables)")
		spanSpec = flag.String("obs-trace", "", "request-span sink: jsonl:PATH, ring:N, or discard (optional @N sampling; ring spans are served at /spans)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *shards <= 0 {
		n := runtime.NumCPU()
		*shards = 1 << (bits.Len(uint(n)) - 1) // round down to a power of two
	}
	obs.Enable() // the server is long-lived; metrics are the point

	tel := server.TelemetryConfig{
		Window: *window,
		TopK:   *topK,
	}
	if *spanSpec != "" {
		sink, ring, sample, err := obs.Open[obs.Span](*spanSpec)
		if err != nil {
			fail(err)
		}
		tel.Spans = obs.NewSpanTracer(obs.SpanSinkOf(sink), sample)
		tel.SpanRing = ring
		defer tel.Spans.Close()
		fmt.Printf("rlcached: span tracing to %s (1 in %d requests)\n", *spanSpec, sample)
	}

	srv, err := server.New(server.Config{
		Policy:         *polName,
		Shards:         *shards,
		Sets:           *sets,
		Ways:           *ways,
		MemoryBytes:    *memMB << 20,
		MaxObjectBytes: *maxObject,
		Telemetry:      tel,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fail(err)
		}
	}

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	fmt.Printf("rlcached: listening on http://%s policy=%s shards=%d sets=%d ways=%d mem=%dMiB\n",
		bound, *polName, *shards, *sets, *ways, *memMB)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("rlcached: %v — draining\n", s)
		sn := srv.Snapshot()
		fmt.Printf("rlcached: served gets=%d hit_rate=%.2f%% fills=%d evictions=%d bytes=%d\n",
			sn.Totals.Gets, sn.HitRatePct(), sn.Totals.Fills,
			sn.Totals.Evictions+sn.Totals.BudgetEvictions, sn.Totals.Bytes)
		httpSrv.Close()
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}
}
