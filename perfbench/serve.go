package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// serveWarm accesses are replayed with direct Server.Get/Put calls at
	// the start of every round, so the measured requests meet a cache whose
	// byte budget is already full.
	serveWarm = 30_000
	// serveAccesses are replayed over HTTP per round: a GET each, plus a
	// PUT after each miss.
	serveAccesses = 8_000
	// spanSample traces one request in spanSample in traced rounds.
	spanSample = 8
	// tracedPolicy is the benchmark-only name of the timed rlr wrapper.
	tracedPolicy = "perfbench-timed-rlr"
)

// serveConfig is the server `make bench-server` measures: rlr, one shard,
// 1024 sets of 16 ways and a 16 MiB byte budget.
var serveConfig = server.Config{Policy: "rlr", Shards: 1, Sets: 1024, Ways: 16, MemoryBytes: 16 << 20}

// servePolicyTimers are the timers the next tracedPolicy instance reports
// to: server.New builds its policies by name, so the factory finds them
// here. They are set before server.New and read after the round's last
// request, and each policy call runs under its shard's lock.
var servePolicyTimers struct{ victim, update *timer }

func init() {
	policy.Register(tracedPolicy, func() policy.Policy {
		return newTimedPolicy(policy.MustNew("rlr"), servePolicyTimers.victim, servePolicyTimers.update)
	})
}

type serve struct {
	keys []trace.Access // warm-up then measured accesses
	want server.Snapshot
	ref  digests

	client *http.Client

	// traced-round sums
	rtt, requests float64
	handler       *handlerTimer
	spans         spanSums
	// The measured segment's counters, the same in every round.
	segGets, segHits, segReqs, segEvictions, segBudgetEvictions float64
}

// setupServe generates the seeded 429.mcf key stream and replays it
// directly for the reference counters.
func setupServe(seed uint64, log *setupLog) (workload, error) {
	spec, err := seededSpec("429.mcf", seed)
	if err != nil {
		return nil, err
	}
	t0 := cpuNow()
	s := &serve{keys: workloads.LLCAccesses(spec, serveWarm+serveAccesses), ref: digests{}}
	log.add("capture", cpuNow()-t0)

	srv, err := server.New(serveConfig)
	if err != nil {
		return nil, err
	}
	replayDirect(srv, s.keys)
	s.want = srv.Snapshot()
	// One keep-alive connection: the closed loop has one request in flight.
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return s, nil
}

func (s *serve) digest() string { return s.ref.combined() }

// replayDirect runs the cache-aside protocol with direct calls: a GET per
// access and a PUT of the block's value after each miss.
func replayDirect(srv *server.Server, accs []trace.Access) {
	var buf []byte
	for _, a := range accs {
		key := server.KeyOf(a)
		if _, hit := srv.Get(key, a.PC); hit {
			continue
		}
		buf = server.FillValue(a.Addr>>6, buf)
		srv.Put(key, a.PC, buf)
	}
}

// round builds a fresh server, fills it directly with the warm-up
// accesses, then serves it on a loopback listener of its own and replays
// the measured accesses over HTTP; one item is one request. The client's
// hit and miss counts must equal the server's counters, which must equal
// the direct replay's.
func (s *serve) round(rec *recorder, tr *tracer) error {
	cfg := serveConfig
	if tr != nil {
		cfg.Policy = tracedPolicy
		servePolicyTimers.victim = tr.timer("policy.victim", policyStride)
		servePolicyTimers.update = tr.timer("policy.update", policyStride)
		cfg.Telemetry.Spans = obs.NewSpanTracer(&s.spans, spanSample)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	warm := func() { replayDirect(srv, s.keys[:serveWarm]) }
	if tr == nil {
		warm()
	} else {
		tr.span("server.direct", warm)
	}
	before := srv.Snapshot()
	h := srv.Handler()
	if tr != nil {
		if s.handler == nil {
			s.handler = &handlerTimer{}
		}
		s.handler.next = h
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	defer func() {
		s.client.CloseIdleConnections()
		_ = hs.Close() // a listener close error changes nothing here
		<-served
	}()
	base := "http://" + ln.Addr().String()

	var gets, hits, reqs, failed int64
	var buf []byte
	for _, a := range s.keys[serveWarm:] {
		key := server.KeyOf(a)
		url := base + "/kv/" + key
		pc := strconv.FormatUint(a.PC, 16)
		status, d, err := s.do(http.MethodGet, url, pc, nil)
		if err != nil {
			return err
		}
		s.record(rec, tr, d)
		reqs++
		gets++
		switch status {
		case http.StatusOK:
			hits++
			continue
		case http.StatusNotFound:
		default:
			rec.fail(1, fmt.Errorf("GET %s: status %d", key, status))
			failed++
			continue
		}
		buf = server.FillValue(a.Addr>>6, buf)
		status, d, err = s.do(http.MethodPut, url, pc, buf)
		if err != nil {
			return err
		}
		s.record(rec, tr, d)
		reqs++
		if status != http.StatusCreated && status != http.StatusNoContent && status != http.StatusAccepted {
			rec.fail(1, fmt.Errorf("PUT %s: status %d", key, status))
			failed++
		}
	}

	got := srv.Snapshot()
	seg := got.Totals
	seg.Gets -= before.Totals.Gets
	seg.GetHits -= before.Totals.GetHits
	seg.Evictions -= before.Totals.Evictions
	seg.BudgetEvictions -= before.Totals.BudgetEvictions
	s.segGets, s.segHits, s.segReqs = float64(seg.Gets), float64(seg.GetHits), float64(reqs)
	s.segEvictions, s.segBudgetEvictions = float64(seg.Evictions), float64(seg.BudgetEvictions)
	var checkErr error
	switch {
	case seg.Gets != uint64(gets) || seg.GetHits != uint64(hits):
		checkErr = fmt.Errorf("client saw %d hits of %d GETs, server counted %d of %d", hits, gets, seg.GetHits, seg.Gets)
	case got.Totals != s.want.Totals:
		checkErr = fmt.Errorf("server counters %+v differ from the direct replay's %+v", got.Totals, s.want.Totals)
	default:
		checkErr = s.ref.check("totals", binaryDigest(got.Totals))
	}
	if checkErr != nil {
		rec.fail(reqs-failed, checkErr) // a wrong counter fails the round's requests
	}
	return nil
}

// do sends one request and drains its response, returning the status and
// the round trip's time.
func (s *serve) do(method, url, pc string, body []byte) (int, interval, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, interval{}, err
	}
	req.Header.Set("X-PC", pc)
	t0 := readClocks()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, interval{}, fmt.Errorf("%s %s: %w", method, url, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := t0.elapsed()
	if err != nil {
		return 0, interval{}, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	return resp.StatusCode, d, nil
}

func (s *serve) record(rec *recorder, tr *tracer, d interval) {
	rec.item(d, 1)
	if tr != nil {
		tr.covered += d.wall.Seconds()
		s.rtt += d.wall.Seconds()
		s.requests++
	}
}

func (s *serve) layers(tr *tracer) map[string]metric {
	rtt := 1e6 * s.rtt / s.requests
	handler := float64(s.handler.ns.Load()) / float64(s.handler.calls.Load()) / 1000
	s.spans.mu.Lock()
	defer s.spans.mu.Unlock()
	n := float64(s.spans.n)
	return map[string]metric{
		"http.client_rtt_us":               {rtt, "us"},
		"server.handler_us":                {handler, "us"},
		"http.transport_us":                {rtt - handler, "us"},
		"server.lock_wait_ns":              {float64(s.spans.lockNs) / n, "ns"},
		"server.victim_ns":                 {float64(s.spans.victimNs) / n, "ns"},
		"server.store_ns":                  {float64(s.spans.store) / n, "ns"},
		"server.hit_ratio":                 {s.segHits / s.segGets, "ratio"},
		"server.policy_evict_share":        {s.segEvictions / (s.segEvictions + s.segBudgetEvictions), "ratio"},
		"server.budget_evictions_per_kreq": {1000 * s.segBudgetEvictions / s.segReqs, "1/kreq"},
		"policy.victim_ns":                 {tr.timer("policy.victim", policyStride).meanNs(), "ns"},
		"policy.update_ns":                 {tr.timer("policy.update", policyStride).meanNs(), "ns"},
	}
}
