# Build / test / CI entry points. `make ci` is the merge gate: vet, the
# full suite under the race detector (the sched pool and singleflight
# memos are exercised by every experiment test), a one-iteration bench
# smoke over every experiment, the CLI smokes, and the differential check.

GO ?= go

.PHONY: build test vet race bench-smoke bench-parallel bench bench-hotpath-smoke bench-intervals bench-server batch-smoke crash-smoke obs-smoke intervals-smoke server-smoke check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is its own module, so ./... does not reach it; vetting it here
# catches a uarch/workloads/policy API change that breaks the benchmark.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Writes BENCH_parallel.json: cold wall-clock per experiment at jobs=1 vs
# jobs=NumCPU. The file is a local output and is not committed.
bench-parallel:
	$(GO) run ./cmd/benchjson -o BENCH_parallel.json

# Runs the per-access hot-path microbenchmarks and regenerates
# BENCH_hotpath.json (oracle query, simulator step, MLP forward/backward,
# chain-vs-map Belady replay speedup).
bench:
	$(GO) test -bench=Hotpath -benchmem -run='^$$' .
	$(GO) run ./cmd/benchjson -hotpath -o BENCH_hotpath.json

# CI smoke for the hot path: small trace, short budgets, stdout only (the
# committed BENCH_hotpath.json is regenerated by `make bench`, not by ci).
bench-hotpath-smoke:
	$(GO) run ./cmd/benchjson -hotpath -quick -o - > /dev/null

# Regression gate for the NN kernels: ForwardBatch at B=8 must be at
# least 2x faster per sample than the scalar reference, and the
# batch-of-one Forward at least 1.5x (the committed BENCH_hotpath.json
# records larger ratios; the floors catch a silent scalar fallback).
batch-smoke:
	$(GO) test -run TestHotpathBatchSpeedupSmoke -count=1 .

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
# with obstool.
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
# over both native fuzz targets.
check:
	$(GO) run ./cmd/check
	$(GO) test -tags simcheck ./internal/cachesim ./internal/policy ./internal/refmodel
	$(GO) test -run='^$$' -fuzz=FuzzDifferentialPolicy -fuzztime=15s ./internal/refmodel
	$(GO) test -run='^$$' -fuzz=FuzzSimulatorInvariants -fuzztime=15s ./internal/cachesim

ci: vet race bench-smoke bench-hotpath-smoke batch-smoke crash-smoke obs-smoke intervals-smoke server-smoke check
