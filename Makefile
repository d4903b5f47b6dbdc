# Build / test / CI entry points. `make ci` is the merge gate: vet, the
# full suite under the race detector (the sched pool and singleflight
# memos are exercised by every experiment test), a one-iteration bench
# smoke over every experiment, the CLI smokes, and the differential check.

GO ?= go

.PHONY: build test vet race bench-smoke bench bench-intervals bench-server bench-pairs batch-smoke crash-smoke obs-smoke intervals-smoke server-smoke check reach ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is its own module, so ./... does not reach it; vetting it here
# catches a uarch/workloads/policy API change that breaks the benchmark.
# The gofmt check lists only tracked files: .bench_build/ holds Go caches.
# The inline check fails when a miss-path helper of cachesim.Step stops
# inlining. The flag-ledger check fails on a CLI flag that no smoke or
# Makefile invocation sets and no keep reason covers, and on a stale
# testdata/flag_ledger.txt (scripts/flag_ledger.sh; a static scan).
# Vetting internal/nn for arm64 checks that every assembly kernel has its
# !amd64 stub.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/nn
	cd perfbench && $(GO) vet .
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	GO=$(GO) sh scripts/inline_check.sh
	sh scripts/flag_ledger.sh -check

race:
	$(GO) test -race ./...

# One iteration of every root benchmark (each digested table plus the
# simulator hot path) and of the agent network's hot-path benchmarks.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/nn

# Runs the hot-path benchmarks five times (oracle query, simulator step,
# chain-driven Belady, RLR and Hawkeye replays, one timing-model run, MLP
# forward/backward/training step) and
# regenerates BENCH_hotpath.json from the medians. The transcript goes to
# a file first, so a failing go test fails the target.
bench:
	mkdir -p tmp_bench
	$(GO) test -run='^$$' -bench=Hotpath -benchmem -count=5 . ./internal/nn > tmp_bench/hotpath.txt
	$(GO) run ./cmd/benchjson -hotpath -o BENCH_hotpath.json < tmp_bench/hotpath.txt

# Paired end-to-end benchmark runs of two commits, converted into
# BENCH_pairs.json (per-metric medians, ranges, pair ratios, pairs won).
# scripts/pairs.sh builds both sides from local git clones through
# perfbench/run.sh and alternates their order over seeds. Each pair takes
# about 50 s, so the default 10 pairs of two workloads take ~20 minutes:
#   make bench-pairs PARENT=HEAD~1 CHANGE=HEAD WORKLOADS="llc-zoo ipc-timing"
PARENT ?= HEAD~1
CHANGE ?= HEAD
WORKLOADS ?= llc-zoo ipc-timing
PAIRS ?= 10
bench-pairs:
	mkdir -p tmp_bench
	for w in $(WORKLOADS); do sh scripts/pairs.sh $(PARENT) $(CHANGE) $$w $(PAIRS) || exit 1; done > tmp_bench/pairs.txt
	$(GO) run ./cmd/benchjson -pairs -o BENCH_pairs.json < tmp_bench/pairs.txt

# Regression gate for the NN kernels: ForwardBatch at B=8 must be at
# least 2x faster per sample than the scalar reference, and the
# batch-of-one Forward at least 1.5x. The reference reads weights at a
# stride of the layer's output count, so measured ratios are large:
# 8.2-12.8x at B=8 and 5.6-9.2x at B=1 in four runs on a 2-vCPU Xeon.
# The floors catch a silent scalar fallback. The batch-of-one Forward on
# the agent-shaped input (57% zeros) must also be at least 1.3x faster
# than on a dense input of the same shape, which catches a 1-row path
# that stops skipping zero inputs.
batch-smoke:
	$(GO) test -run TestHotpathBatchSpeedupSmoke -count=1 ./internal/nn

# Regenerates BENCH_intervals.json: full-trace vs representative-interval
# simulation over the policy zoo on multi-million-access chunked traces
# (wall-clock speedup + Kendall-τ ranking agreement). Takes minutes.
bench-intervals:
	$(GO) run ./cmd/benchjson -intervals -o BENCH_intervals.json

# Streaming-pipeline smoke: chunked tracegen round trip plus the quick
# representative-interval benchmark, with JSON field validation.
intervals-smoke:
	sh scripts/intervals_smoke.sh

# Crash-recovery smoke: train, SIGKILL mid-run, resume, and require the
# resumed model to be byte-identical to an uninterrupted run.
crash-smoke:
	sh scripts/crash_smoke.sh

# Observability smoke: short traced training run, then strict-validate the
# run manifest (run_start + epoch telemetry + run_end) and the event trace
# with obstool; a traced quick fig1 grid through cmd/experiments (its
# trace validated too), its tab1 CSV header, and the fig3 -chart heat map.
obs-smoke:
	sh scripts/obs_smoke.sh

# Cache-server smoke: boot rlcached on an ephemeral port, replay a short
# workload with cacheload (live + in-process sweep), and validate the
# BENCH_server.json shape plus the /metrics endpoint.
server-smoke:
	sh scripts/server_smoke.sh

# Regenerates BENCH_server.json: the cache server replayed over loopback
# HTTP per policy (throughput, p50/p99 latency, hit rate, evictions).
bench-server:
	$(GO) run ./cmd/cacheload -policies lru,drrip,ship,cbr,hawkeye,rlr \
	    -workload 429.mcf -n 200000 -shards 1 -sets 1024 -ways 16 -mem-mb 16 \
	    -o BENCH_server.json

# Differential correctness harness: lock-step sweep of every production
# policy against its reference model (exits nonzero with a minimized,
# replayable counterexample on divergence), the policy/simulator suites
# with the always-on invariant checker compiled in, and a short fuzz smoke
# over the six native fuzz targets (the stamp-derived cache ages and
# recency against the eager reference counters, the oracle's cursor and
# rewind against a naive forward scan, Hawkeye's OPTgen history table
# against the map-based sampler it replaced, and the private levels' LRU
# directory against the cache.Cache protocol it replaced, among them).
check:
	$(GO) run ./cmd/check
	$(GO) test -tags simcheck ./internal/cachesim ./internal/policy ./internal/refmodel
	$(GO) test -run='^$$' -fuzz=FuzzDifferentialPolicy -fuzztime=15s ./internal/refmodel
	$(GO) test -run='^$$' -fuzz=FuzzSimulatorInvariants -fuzztime=15s ./internal/cachesim
	$(GO) test -run='^$$' -fuzz=FuzzStampsMatchEager -fuzztime=15s ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzOracleChainVsMap -fuzztime=15s ./internal/policy
	$(GO) test -run='^$$' -fuzz=FuzzOptGenTableVsMap -fuzztime=15s ./internal/policy
	$(GO) test -run='^$$' -fuzz=FuzzLRUDirMatchesCache -fuzztime=15s ./internal/uarch

# Regenerates testdata/flag_ledger.txt (every CLI flag, with the
# invocation that sets it or the reason it stays; scripts/flag_ledger.sh)
# and testdata/reach_ledger.txt: every non-test function that neither the
# bench smoke, the CI smokes, cmd/check nor a short perfbench run reaches,
# each with the reason it stays (scripts/reach.sh). Fails on a flag or a
# function no keep rule covers. Not part of ci: the function ledger
# rebuilds everything with coverage and takes a few minutes.
reach:
	sh scripts/flag_ledger.sh
	sh scripts/reach.sh

ci: vet race bench-smoke batch-smoke crash-smoke obs-smoke intervals-smoke server-smoke check
