// Package server is rlcached's engine: a concurrent key/value cache whose
// eviction is pluggable over the internal/policy zoo (lru, drrip, ship,
// hawkeye, cbr, rlr, ...), adapted from fixed-geometry LLC simulation to
// variable-size objects.
//
// The adaptation has three parts:
//
//   - a synthetic set geometry: every key hashes to a 64-bit value that is
//     split into shard / set / tag bits, so the zoo's set-associative
//     victim logic applies unchanged (see shard for the exact split and
//     its shard-count-invariance property);
//   - a byte budget: objects are variable-size, so capacity is bytes, not
//     ways — set-conflict evictions are the policy's call, and a per-shard
//     round-robin budget sweep reclaims bytes when the resident total
//     exceeds the budget;
//   - admission/bypass hooks: oversized objects are refused up front (the
//     Cold-RL size-blind-LRU pathology), and a policy returning
//     policy.Bypass on the fill declines to cache, exactly as in the
//     simulator.
//
// Values live in a content-addressed, reference-counted Store shared by
// all shards; shards hold only tags and refs. Sharding generalizes the
// internal/sched sharded-Memo idiom: per-shard locks with key-hash
// routing, plus a per-shard policy instance since the zoo's policies are
// single-threaded by design.
//
// Counters and request-latency histograms go to the internal/obs registry
// (when obs.Enable was called), so -obs-addr exposes them on /metrics; the
// server also mounts /metrics and a JSON /stats on its own handler.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/xrand"
)

// Config describes a cache server instance.
type Config struct {
	// Policy is the replacement policy name (internal/policy registry).
	Policy string
	// Shards is the number of tag shards (power of two). Each shard has its
	// own lock and its own policy instance over Sets/Shards sets.
	Shards int
	// Sets is the total number of synthetic sets across all shards (power
	// of two, >= Shards).
	Sets int
	// Ways is the associativity of every synthetic set (1..256).
	Ways int
	// MemoryBytes is the total byte budget, split evenly across shards.
	MemoryBytes int64
	// MaxObjectBytes is the admission bound: larger PUTs bypass the cache.
	// 0 means MemoryBytes/Shards/4.
	MaxObjectBytes int64
	// EvictObserver, when non-nil, sees every evicted object (tests,
	// logging). Called with the shard lock held; keep it cheap.
	EvictObserver func(key string, size int64)
	// Telemetry configures the production telemetry layer (windowed
	// metrics, heavy-hitter sketches, request spans). The zero value
	// disables all of it: a telemetry-off server behaves byte-identically
	// to one built before the layer existed, at the cost of a few nil
	// checks per request.
	Telemetry TelemetryConfig
}

// TelemetryConfig switches on the server's live telemetry. Every piece is
// independent and defaults to off.
type TelemetryConfig struct {
	// Window enables sliding-window metrics (rolling hit rate, QPS,
	// eviction rate, latency quantiles per shard and globally, served at
	// /window) spanning this duration. 0 disables.
	Window time.Duration
	// TopK enables per-shard Space-Saving sketches of the keys driving
	// misses and evictions (merged across shards at /topkeys), tracking
	// this many keys per shard. 0 disables.
	TopK int
	// Spans samples per-request spans (GET/PUT/DELETE decomposed into
	// shard-lock wait, policy victim scan, and store I/O) into the
	// tracer's sink. Nil disables.
	Spans *obs.SpanTracer
	// SpanRing, when the span sink is a ring, lets the server serve its
	// snapshot at /spans.
	SpanRing *obs.Ring[obs.Span]
	// Clock overrides the window clock (deterministic tests).
	Clock obs.Clock
}

// windowBucket is the ring-bucket duration of every window; the ring holds
// ceil(Window/windowBucket) buckets.
const windowBucket = time.Second

// windowed reports whether sliding-window metrics are on.
func (t TelemetryConfig) windowed() bool { return t.Window > 0 }

// newWindow builds one shard's window (nil when disabled).
func (t TelemetryConfig) newWindow() *obs.Window {
	if !t.windowed() {
		return nil
	}
	n := int((t.Window + windowBucket - 1) / windowBucket)
	return obs.NewWindow(obs.WindowConfig{Bucket: windowBucket, Buckets: n, Now: t.Clock})
}

// Server is one policy-driven cache instance plus its HTTP facade.
type Server struct {
	cfg       Config
	shards    []*shard
	store     *Store
	shardBits uint
	spans     *obs.SpanTracer // nil when span tracing is off

	// obs metrics (nil-safe when observability is disabled).
	mGets    *obs.Counter
	mHits    *obs.Counter
	mMisses  *obs.Counter
	mPuts    *obs.Counter
	mFills   *obs.Counter
	mEvicts  *obs.Counter
	mBypass  *obs.Counter
	mDeletes *obs.Counter
	gBytes   *obs.Gauge
	hLatency *obs.Histogram
}

// New validates cfg, instantiates one policy per shard, and returns the
// server.
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if !mathx.IsPow2(uint64(cfg.Shards)) {
		return nil, fmt.Errorf("server: Shards must be a power of two, got %d", cfg.Shards)
	}
	if cfg.Sets <= 0 || !mathx.IsPow2(uint64(cfg.Sets)) {
		return nil, fmt.Errorf("server: Sets must be a positive power of two, got %d", cfg.Sets)
	}
	if cfg.Sets < cfg.Shards {
		return nil, fmt.Errorf("server: Sets (%d) must be >= Shards (%d)", cfg.Sets, cfg.Shards)
	}
	if cfg.Ways <= 0 || cfg.Ways > 256 {
		return nil, fmt.Errorf("server: Ways must be in 1..256, got %d", cfg.Ways)
	}
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("server: MemoryBytes must be positive, got %d", cfg.MemoryBytes)
	}
	shardBudget := cfg.MemoryBytes / int64(cfg.Shards)
	if cfg.MaxObjectBytes <= 0 {
		cfg.MaxObjectBytes = shardBudget / 4
		if cfg.MaxObjectBytes == 0 {
			cfg.MaxObjectBytes = shardBudget
		}
	}
	s := &Server{
		cfg:       cfg,
		store:     NewStore(),
		shardBits: uint(bits.TrailingZeros64(uint64(cfg.Shards))),
		spans:     cfg.Telemetry.Spans,
	}
	if m := obs.Metrics(); m != nil {
		registerMetricHelp()
		s.mGets = m.Counter("server_gets")
		s.mHits = m.Counter("server_hits")
		s.mMisses = m.Counter("server_misses")
		s.mPuts = m.Counter("server_puts")
		s.mFills = m.Counter("server_fills")
		s.mEvicts = m.Counter(`server_evictions_by_policy{policy="` + cfg.Policy + `"}`)
		s.mBypass = m.Counter("server_bypasses")
		s.mDeletes = m.Counter("server_deletes")
		s.gBytes = m.Gauge("server_bytes")
		s.hLatency = m.Histogram("server_request_ns")
	}
	localSets := cfg.Sets / cfg.Shards
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		pol, err := policy.New(cfg.Policy)
		if err != nil {
			return nil, err
		}
		s.shards[i] = newShard(s, i, localSets, cfg.Ways, shardBudget, cfg.MaxObjectBytes, pol, s.store, cfg.EvictObserver)
	}
	return s, nil
}

// blockBits bounds the synthetic block address so that block*lineSize
// still fits a 64-bit byte address (the tag store derives Line.Block as
// addr >> log2(lineSize); a wider block would silently truncate and break
// the victim.Block -> entry lookup). 58 bits of tag keep accidental
// aliasing negligible, and the alias path handles the rest.
const (
	blockBits = 58
	blockMask = 1<<blockBits - 1
)

// route splits a key hash into its owning shard and the synthetic block
// address within that shard. See the shard doc comment for why low bits
// pick the shard: the partition into global sets is then independent of
// the shard count.
func (s *Server) route(key string) (*shard, uint64) {
	h := hashKey(key)
	return s.shards[h&uint64(s.cfg.Shards-1)], (h >> s.shardBits) & blockMask
}

// hashKey maps a key to a 64-bit synthetic address: FNV-1a for content
// sensitivity, finished with a mix round so the low (set-selecting) bits
// are avalanche-quality even for dense sequential keys.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return xrand.Mix64(h)
}

// Get returns the cached value for key. pc is the optional client-supplied
// provenance PC (0 when absent) that PC-correlating policies consume.
func (s *Server) Get(key string, pc uint64) ([]byte, bool) {
	val, hit, _ := s.get(key, pc, nil)
	return val, hit
}

// get is the span-aware GET: sp (nil when the request is unsampled or
// tracing is off) gets the shard index and phase timings attached. The
// owning shard is returned so the HTTP layer can record per-shard request
// latency.
func (s *Server) get(key string, pc uint64, sp *obs.ActiveSpan) ([]byte, bool, *shard) {
	sh, block := s.route(key)
	sp.SetShard(sh.idx)
	val, hit := sh.get(key, block, pc, sp)
	s.mGets.Inc()
	if hit {
		s.mHits.Inc()
	} else {
		s.mMisses.Inc()
	}
	return val, hit, sh
}

// PutResult reports what a Put did.
type PutResult int

// Put outcomes.
const (
	PutStored   PutResult = iota // new object filled into the cache
	PutUpdated                   // resident key overwritten (hit path)
	PutBypassed                  // admission or policy declined to cache
)

// Put inserts or overwrites key with val.
func (s *Server) Put(key string, pc uint64, val []byte) PutResult {
	out, _ := s.put(key, pc, val, nil)
	return out
}

// put is the span-aware PUT (see get).
func (s *Server) put(key string, pc uint64, val []byte, sp *obs.ActiveSpan) (PutResult, *shard) {
	sh, block := s.route(key)
	sp.SetShard(sh.idx)
	out := sh.put(key, block, pc, val, sp)
	s.mPuts.Inc()
	switch out {
	case putStored:
		s.mFills.Inc()
		return PutStored, sh
	case putUpdated:
		return PutUpdated, sh
	default:
		s.mBypass.Inc()
		return PutBypassed, sh
	}
}

// Delete removes key, reporting whether it was resident.
func (s *Server) Delete(key string) bool {
	ok, _ := s.del(key, nil)
	return ok
}

// del is the span-aware DELETE (see get).
func (s *Server) del(key string, sp *obs.ActiveSpan) (bool, *shard) {
	sh, block := s.route(key)
	sp.SetShard(sh.idx)
	ok := sh.del(key, block, sp)
	if ok {
		s.mDeletes.Inc()
	}
	return ok, sh
}

// Snapshot is the aggregate server state served at /stats.
type Snapshot struct {
	Policy      string     `json:"policy"`
	Shards      int        `json:"shards"`
	Sets        int        `json:"sets"`
	Ways        int        `json:"ways"`
	MemoryBytes int64      `json:"memory_bytes"`
	Totals      shardStats `json:"totals"`
	UniqueBlobs int        `json:"unique_blobs"`
	UniqueBytes int64      `json:"unique_bytes"`
	// Window is the global sliding-window view (nil when windowed metrics
	// are off) — the "right now" companion to the cumulative Totals.
	Window *WindowStats `json:"window,omitempty"`
}

// HitRatePct returns the GET hit rate in percent (0 when no GETs ran).
func (sn Snapshot) HitRatePct() float64 {
	if sn.Totals.Gets == 0 {
		return 0
	}
	return 100 * float64(sn.Totals.GetHits) / float64(sn.Totals.Gets)
}

// Snapshot aggregates every shard's counters (shard by shard, so it never
// stalls the whole server).
func (s *Server) Snapshot() Snapshot {
	sn := Snapshot{
		Policy:      s.cfg.Policy,
		Shards:      s.cfg.Shards,
		Sets:        s.cfg.Sets,
		Ways:        s.cfg.Ways,
		MemoryBytes: s.cfg.MemoryBytes,
		UniqueBlobs: s.store.Blobs(),
		UniqueBytes: s.store.UniqueBytes(),
	}
	t := &sn.Totals
	for _, sh := range s.shards {
		st := sh.snapshot()
		t.Gets += st.Gets
		t.GetHits += st.GetHits
		t.Puts += st.Puts
		t.PutHits += st.PutHits
		t.Fills += st.Fills
		t.Deletes += st.Deletes
		t.Evictions += st.Evictions
		t.BudgetEvictions += st.BudgetEvictions
		t.AdmitBypasses += st.AdmitBypasses
		t.PolicyBypasses += st.PolicyBypasses
		t.Collisions += st.Collisions
		t.Bytes += st.Bytes
		t.Entries += st.Entries
	}
	if s.cfg.Telemetry.windowed() {
		ws := renderWindow(s.globalWindow())
		sn.Window = &ws
	}
	return sn
}

// maxRequestBody caps PUT bodies regardless of the admission bound, so a
// hostile request cannot balloon memory before admission even sees it.
const maxRequestBody = 64 << 20

// Handler returns the HTTP facade:
//
//	GET    /kv/<key>   200 + body (X-Cache: HIT) | 404 (X-Cache: MISS)
//	PUT    /kv/<key>   201 stored | 204 updated | 202 bypassed
//	DELETE /kv/<key>   204 | 404
//	GET    /stats      aggregate counters as JSON (plus the global window)
//	GET    /metrics    the obs registry; ?format=prometheus for exposition format
//	GET    /window     sliding-window metrics per shard and global (JSON)
//	GET    /topkeys    heavy-hitter keys by misses and evictions (JSON)
//	GET    /spans      recent sampled request spans (JSONL; ring sink only)
//	GET    /healthz    "ok"
//
// Clients may send an X-PC header (hex) carrying the provenance program
// counter of the request; PC-based policies use it as their prediction
// index.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", s.handleKV)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Snapshot())
	})
	mux.HandleFunc("/metrics", obs.WriteMetricsHTTP)
	mux.HandleFunc("/window", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.WindowReport())
	})
	mux.HandleFunc("/topkeys", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.TopKeys())
	})
	if ring := s.cfg.Telemetry.SpanRing; ring != nil {
		mux.Handle("/spans", ring)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleKV(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var sh *shard
	defer func() {
		ns := uint64(time.Since(start).Nanoseconds())
		s.hLatency.Observe(ns)
		if sh != nil {
			sh.win.RecordLatency(ns)
		}
	}()

	key, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/kv/"))
	if err != nil || key == "" {
		http.Error(w, "bad key", http.StatusBadRequest)
		return
	}
	var pc uint64
	if h := r.Header.Get("X-PC"); h != "" {
		if pc, err = strconv.ParseUint(h, 16, 64); err != nil {
			http.Error(w, "bad X-PC", http.StatusBadRequest)
			return
		}
	}

	switch r.Method {
	case http.MethodGet:
		sp := s.spans.Start(obs.SpanGet)
		sp.SetKey(key)
		val, hit, shd := s.get(key, pc, sp)
		sh = shd
		if !hit {
			w.Header().Set("X-Cache", "MISS")
			w.WriteHeader(http.StatusNotFound)
			sp.Finish("miss", false)
			return
		}
		w.Header().Set("X-Cache", "HIT")
		w.Header().Set("Content-Length", strconv.Itoa(len(val)))
		w.Write(val)
		sp.Finish("hit", true)
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
		if err != nil {
			http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
			return
		}
		sp := s.spans.Start(obs.SpanPut)
		sp.SetKey(key)
		out, shd := s.put(key, pc, body, sp)
		sh = shd
		switch out {
		case PutStored:
			w.WriteHeader(http.StatusCreated)
			sp.Finish("stored", false)
		case PutUpdated:
			w.WriteHeader(http.StatusNoContent)
			sp.Finish("updated", true)
		default:
			w.Header().Set("X-Cache", "BYPASS")
			w.WriteHeader(http.StatusAccepted)
			sp.Finish("bypassed", false)
		}
	case http.MethodDelete:
		sp := s.spans.Start(obs.SpanDelete)
		sp.SetKey(key)
		ok, shd := s.del(key, sp)
		sh = shd
		if ok {
			w.WriteHeader(http.StatusNoContent)
			sp.Finish("deleted", true)
		} else {
			w.WriteHeader(http.StatusNotFound)
			sp.Finish("absent", false)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
