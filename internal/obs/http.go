package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/profiling"
)

// shutdownGrace bounds how long Serve's shutdown function waits for
// in-flight responses (a /debug/pprof profile, a long /events dump)
// before force-closing their connections.
const shutdownGrace = 2 * time.Second

// Serve starts the live-introspection endpoint on addr (the -obs-addr
// flag) and returns the bound address plus a shutdown function. An empty
// addr is a no-op (empty address, nil-safe shutdown), so cmds wire it
// unconditionally. The mux exposes:
//
//	/            plain-text index of the endpoints below
//	/metrics     sorted "name value" dump of the metrics registry
//	/debug/vars  expvar JSON (includes the registry under "obs")
//	/debug/pprof pprof profiles (CPU, heap, goroutine, ...) via internal/profiling
//	/events      last events of the ring sink as JSONL (only when ring != nil)
//
// Serving uses its own goroutine; the run itself is never blocked.
func Serve(addr string, ring *Ring[CacheEvent]) (bound string, shutdown func(), err error) {
	if addr == "" {
		return "", func() {}, nil
	}
	PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "observability endpoint")
		fmt.Fprintln(w, "  /metrics      metrics registry (text)")
		fmt.Fprintln(w, "  /debug/vars   expvar (JSON)")
		fmt.Fprintln(w, "  /debug/pprof  pprof profiles")
		if ring != nil {
			fmt.Fprintln(w, "  /events       recent cache events (JSONL)")
		}
	})
	mux.HandleFunc("/metrics", WriteMetricsHTTP)
	mux.Handle("/debug/vars", expvar.Handler())
	profiling.AttachPprof(mux)
	if ring != nil {
		mux.Handle("/events", ring)
	}

	return serveOn(addr, mux)
}

// WriteMetricsHTTP serves the default registry: the sorted "name value"
// text dump by default, or the Prometheus text exposition format when the
// request carries ?format=prometheus. Shared by the obs endpoint and the
// cache server's /metrics.
func WriteMetricsHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", PrometheusContentType)
		Default().WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	Default().WriteText(w)
}

// serveOn binds addr and serves mux in the background. The returned
// shutdown drains gracefully: in-flight responses get shutdownGrace to
// finish (srv.Shutdown), then remaining connections are force-closed
// (srv.Close). Serve errors other than the expected http.ErrServerClosed
// are logged rather than dropped.
func serveOn(addr string, mux http.Handler) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("obs: serve on %s: %v", ln.Addr(), err)
		}
	}()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close() // grace expired: abort whatever is still in flight
		}
	}
	return ln.Addr().String(), shutdown, nil
}
