package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeEndpoints boots the live endpoint on an ephemeral port and
// exercises every route: the index, the metrics dump, expvar, and the ring
// sink's recent-events stream.
func TestServeEndpoints(t *testing.T) {
	Default().Counter("http_test_counter").Inc()
	ring := NewRing[CacheEvent](4)
	ring.Emit(&CacheEvent{Kind: EvHit, Seq: 42, Addr: 64})

	bound, shutdown, err := Serve("127.0.0.1:0", ring)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if bound == "" {
		t.Fatal("no bound address")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if idx := get("/"); !strings.Contains(idx, "/metrics") || !strings.Contains(idx, "/events") {
		t.Errorf("index page incomplete:\n%s", idx)
	}
	if m := get("/metrics"); !strings.Contains(m, "http_test_counter 1") {
		t.Errorf("/metrics missing the registered counter:\n%s", m)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	} else if _, ok := vars["obs"]; !ok {
		t.Error("/debug/vars does not publish the obs registry")
	}
	evs, err := ReadJSONL[CacheEvent](strings.NewReader(get("/events")))
	if err != nil {
		t.Fatalf("/events: %v", err)
	}
	if len(evs) != 1 || evs[0].Seq != 42 {
		t.Errorf("/events = %+v, want the one ring event", evs)
	}
}

// TestShutdownDrainsInFlight is the regression test for shutdown aborting
// live responses: a request that is mid-body when shutdown is called must
// still complete. Before serveOn drained via srv.Shutdown, the shutdown
// function called srv.Close, which severed the connection and the client
// saw a truncated body / transport error.
func TestShutdownDrainsInFlight(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "part1-")
		w.(http.Flusher).Flush()
		close(inHandler)
		<-release // hold the response open across the shutdown call
		io.WriteString(w, "part2")
	})

	bound, shutdown, err := serveOn("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + bound + "/slow")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{body: string(body), err: err}
	}()

	<-inHandler
	done := make(chan struct{})
	go func() { shutdown(); close(done) }()
	time.Sleep(20 * time.Millisecond) // let Shutdown start draining
	close(release)

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", r.err)
	}
	if r.body != "part1-part2" {
		t.Fatalf("in-flight body truncated across shutdown: %q", r.body)
	}
	select {
	case <-done:
	case <-time.After(2 * shutdownGrace):
		t.Fatal("shutdown did not return")
	}
}

// TestServeDisabled pins the no-flag path: empty address means no listener
// and a callable shutdown.
func TestServeDisabled(t *testing.T) {
	bound, shutdown, err := Serve("", nil)
	if err != nil || bound != "" {
		t.Fatalf("bound=%q err=%v, want no-op", bound, err)
	}
	shutdown()
}

// TestProgress checks the rate limiter: a nil Progress (disabled) never
// logs, and an enabled one emits at most one line per interval.
func TestProgress(t *testing.T) {
	var p *Progress = NewProgress(0)
	if p != nil {
		t.Fatal("interval 0 must disable progress")
	}
	p.Tick("never") // nil-safe

	var buf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(old)

	p = NewProgress(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	p.Tick("line one", "step", 1)
	p.Tick("line two", "step", 2) // same interval: suppressed
	out := buf.String()
	if !strings.Contains(out, "line one") {
		t.Errorf("first tick after the interval must log, got:\n%s", out)
	}
	if strings.Contains(out, "line two") {
		t.Errorf("second tick within the interval must be suppressed, got:\n%s", out)
	}
}
