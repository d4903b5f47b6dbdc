#!/bin/sh
# reach.sh — the reachability ledger: which non-test functions does nothing
# the repository measures reach?
#
# "Measured" means the paper tables and the CI smokes plus the end-to-end
# benchmark:
#   - `make bench-smoke` (every table, every digest, every hot-path
#     benchmark) and `make batch-smoke`, from coverage-instrumented test
#     binaries of the root package and internal/nn;
#   - the differential `cmd/check`;
#   - the crash, obs, intervals and server smokes, run unchanged with the
#     Go toolchain told to build instrumented binaries (GOFLAGS);
#   - one short untraced and one short traced run of each perfbench
#     workload.
# Every binary is built with `-cover -coverpkg=repro/...` and writes its
# counters under GOCOVERDIR; `go tool covdata` merges them. A zero-count
# profile of every package in the module (`go test -coverpkg` with no tests
# run) supplies the functions that no run even links.
#
# The result is written to testdata/reach_ledger.txt: one line per
# unreached function with the reason it is kept. Reasons come from the
# KEEP rules below (first matching glob wins). A function that no rule
# covers is written as UNCLASSIFIED and the script exits 1: delete it, or
# add the rule that says why it stays. It also exits 1 on a rule that
# matches no unreached function (scripts/keep.sh, shared with the flag
# ledger).
#
# Run from the repository root:
#
#	sh scripts/reach.sh       # or: make reach
set -eu

root=$(pwd)
ledger="$root/testdata/reach_ledger.txt"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
cov="$tmp/cov"
bin="$tmp/bin"
mkdir -p "$cov" "$bin"
cover="-cover -coverpkg=repro/..."

echo "reach: building instrumented binaries..."
# shellcheck disable=SC2086
go build $cover -o "$bin/" ./cmd/check
# shellcheck disable=SC2086
(cd perfbench && go build $cover -o "$bin/perfbench" .)
# shellcheck disable=SC2086
go test -c $cover -o "$bin/root.test" .
# shellcheck disable=SC2086
go test -c $cover -o "$bin/nn.test" ./internal/nn

echo "reach: bench-smoke and batch-smoke..."
mkdir -p "$cov/bench"
"$bin/root.test" -test.run '^$' -test.bench . -test.benchtime 1x \
    -test.gocoverdir="$cov/bench" > /dev/null
"$bin/nn.test" -test.run '^$' -test.bench . -test.benchtime 1x \
    -test.gocoverdir="$cov/bench" > /dev/null
"$bin/nn.test" -test.run TestHotpathBatchSpeedupSmoke -test.count 1 \
    -test.gocoverdir="$cov/bench" > /dev/null

echo "reach: check..."
mkdir -p "$cov/cli"
GOCOVERDIR="$cov/cli" "$bin/check" > /dev/null

for s in crash obs intervals server; do
    echo "reach: $s-smoke..."
    mkdir -p "$cov/$s"
    GOFLAGS="$cover" GOCOVERDIR="$cov/$s" sh "scripts/${s}_smoke.sh" > /dev/null
done

for w in llc-zoo ipc-timing rl-train serve; do
    for t in 0 1; do
        echo "reach: perfbench $w --trace $t..."
        mkdir -p "$cov/perfbench"
        GOCOVERDIR="$cov/perfbench" "$bin/perfbench" --workload "$w" \
            --seed 1 --seconds 0.2 --trace "$t" > /dev/null
    done
done

echo "reach: merging profiles..."
# Every package of the module at count zero: packages no run links still
# list their functions.
go test -coverpkg=repro/... -coverprofile="$tmp/universe.out" -run '^$' \
    ./... > /dev/null
go tool covdata textfmt -i="$(ls -d "$cov"/* | paste -sd, -)" -o "$tmp/runs.out"
# perfbench is a module of its own: its main package is not in the ledger.
grep -v '^repro/perfbench/' "$tmp/runs.out" > "$tmp/runs.repro.out"
# A block counts as reached if any run reached it; the universe's own
# counts (package init under the empty test run) are ignored.
awk 'FNR == 1 { next }
     { key = $1 " " $2; c = (FILENAME == ARGV[1]) ? 0 : $3
       if (!(key in n) || c > n[key]) n[key] = c }
     END { print "mode: set"; for (k in n) print k, n[k] }' \
    "$tmp/universe.out" "$tmp/runs.repro.out" > "$tmp/merged.out"
go tool cover -func="$tmp/merged.out" > "$tmp/func.txt"

echo "reach: writing $ledger..."
# Unreached functions: 0.0% of statements, the total line excluded.
# Empty-bodied functions ("{}" on the declaration line) have no statement
# to reach and are skipped. The receiver, when there is one, is read from
# the declaration line.
grep -v '^total:' "$tmp/func.txt" | awk '$NF == "0.0%" { print $1, $2 }' \
    | while read -r loc name; do
        file=${loc%%:*}
        rest=${loc#*:}
        line=${rest%%:*}
        rel=${file#repro/}
        decl=$(sed -n "${line}p" "$rel")
        case "$decl" in *'{}') continue ;; esac
        recv=$(printf '%s\n' "$decl" \
            | sed -n 's/^func (\([a-zA-Z_]* \)\{0,1\}\*\{0,1\}\([A-Za-z0-9_]*\).*/\2./p')
        printf '%s:%s %s%s\n' "$rel" "$line" "$recv" "$name"
    done | sort -t: -k1,1 -k2,2n > "$tmp/unreached.txt"

# KEEP rules: "<glob over path:Recv.Func> <reason>"; first match wins.
# A function that only tests call belongs in a _test.go file, unless a test
# in another package needs it (its rule then says which).
cat > "$tmp/keep.txt" <<'EOF'
cmd/benchjson/hotpath.go:* make bench: converts the hot-path benchmarks' output into BENCH_hotpath.json (TestConvertHotpath feeds it a fixed transcript)
cmd/benchjson/pairs.go:* make bench-pairs: converts paired perfbench runs into BENCH_pairs.json (TestConvertPairs feeds it a fixed transcript)
cmd/check/main.go:runReplay cmd/check -replay: re-runs a saved counterexample, which exists only after a divergence
cmd/obstool/main.go:usage usage text for a bad command line
cmd/overhead/* Table I at any geometry (README "Other tools")
cmd/rltrain/main.go:saveCheckpoint checkpoint write: crash-smoke writes checkpoints in the run it SIGKILLs, and a killed process leaves no counters
examples/* example programs the README lists; nothing measured runs them
internal/cache/cache.go:Cache.SaveState checkpoint write (see cmd/rltrain saveCheckpoint)
internal/cache/cache.go:Cache.Stats cachesim and uarch tests read cache occupancy through it (another package)
internal/cachesim/cachesim.go:Simulator.SaveState checkpoint write (see cmd/rltrain saveCheckpoint)
internal/cachesim/preuse.go:preuseTable.* checkpoint write (see cmd/rltrain saveCheckpoint)
internal/cachesim/invariants.go:* invariant checker built by -tags simcheck (make check runs those suites)
internal/policy/*.go:*.CheckInvariants invariant checker built by -tags simcheck (make check runs those suites)
internal/policy/hawkeye.go:optGenSet.check invariant checker built by -tags simcheck: Hawkeye.CheckInvariants calls it (make check runs those suites)
internal/checkpoint/checkpoint.go:Save checkpoint write (see cmd/rltrain saveCheckpoint)
internal/checkpoint/checkpoint.go:*.Error error text for a corrupt or mismatched checkpoint
internal/experiments/experiments.go:List cmd/experiments -list
internal/experiments/experiments.go:TrainedAgent examples/rlinsights
internal/experiments/fig10.go:shortErr keep-going cell annotation, reached only when a cell fails
internal/nn/batch.go:gemmGo pure-Go kernel where AVX2 is absent (TestForwardBatchPureGoPath and TestBackwardBatchPureGoPath pin it)
internal/nn/nn.go:MLP.SaveFull checkpoint write (see cmd/rltrain saveCheckpoint)
internal/obs/http.go:serveOn the -obs-addr endpoint of rltrain, rlrsim and experiments (obs.StartCLI)
internal/obs/metrics.go:PublishExpvar the -obs-addr endpoint's /debug/vars
internal/obs/obs.go:Disable tests that switch the process-wide registry on switch it off again (cachesim, experiments and server tests)
internal/obs/sink.go:Discard.* the sink chosen by -obs-trace discard (overhead measurement)
internal/obs/sink.go:sampler.reportOnce error report of a failing trace or span sink (a full disk), reached only when an emit fails
internal/obs/span.go:SpanOp.String span op wire name (fmt.Stringer)
internal/obs/span.go:SpanOp.UnmarshalJSON decodes span JSONL; the server tests read /spans through it (another package)
internal/obs/window.go:Window.RecordBypass server PUT bypass path; the smoke workload never bypasses
internal/policy/belady.go:Oracle.Len NextUseChain method; perfbench llc-zoo calls it through its timed chain
internal/policy/counter.go:* CBR: a row of BENCH_server.json (make bench-server)
internal/policy/eva.go:* EVA: in the BENCH_intervals.json zoo (make bench-intervals)
internal/policy/rwp.go:* RWP: in the BENCH_intervals.json zoo (make bench-intervals)
internal/policy/pdp.go:PDP.sweepMonitor PDP's periodic monitor decay, reached on traces longer than the bench scale's
internal/policy/lru.go:MRU.* registered sanity baseline (policy.New); the cachesim registry sweeps and refmodel tests run it
internal/policy/lru.go:Random.* registered baseline (policy.New); the refmodel differential tests run it
internal/policy/*.go:*.Name Policy.Name, the registry and CLI label
internal/policy/policy.go:Names error text for an unknown policy; cachesim tests sweep the registry through it
internal/policy/traced.go:* rlrsim -obs-trace: victim decisions on the event stream
internal/profiling/profiling.go:AttachPprof the -obs-addr endpoint's /debug/pprof
internal/refmodel/diff.go:* cmd/check counterexample path, reached only on a divergence
internal/refmodel/refmodel.go:*.Name reference-model label in divergence reports
internal/rl/replay.go:Replay.saveState checkpoint write (see cmd/rltrain saveCheckpoint)
internal/rl/state.go:Agent.saveState checkpoint write (see cmd/rltrain saveCheckpoint)
internal/rl/trainer.go:Trainer.SaveState checkpoint write (see cmd/rltrain saveCheckpoint)
internal/sched/failsafe.go:* cmd/experiments -timeout
internal/sched/keepgoing.go:MapAll cmd/experiments -keep-going: fig10's grids keep going past a failed cell
internal/sched/memo.go:Memo.forget memo error path: a failed computation is not cached
internal/sched/memo.go:Memo.Computes experiments tests count memo computations through it (another package)
internal/sched/memo.go:Memo.Len experiments tests count memoized results through it (another package)
internal/sched/sched.go:PanicError.Error error text for a panicking job
internal/sched/sched.go:firstError.record error path of ForEach/Map
internal/server/server.go:Server.Delete the server's HTTP DELETE API
internal/server/server.go:Server.del the server's HTTP DELETE API
internal/server/shard.go:shard.del the server's HTTP DELETE API
internal/server/shard.go:shard.resolveCollision two keys sharing a 64-bit hash; vanishingly rare
internal/server/shard.go:shard.recordPutBypass server PUT bypass path; the smoke workload never bypasses
internal/trace/chunked.go:Codec.String codec name in error text (fmt.Stringer)
internal/trace/chunked.go:corruptf error path for a corrupt container
internal/uarch/prefetch.go:* Prefetcher method: a name label, or the confidence only KPC-P's fill gating reads
internal/uarch/system.go:* in-memory instruction source the uarch unit and golden-digest tests replay; left in place on purpose
internal/workloads/workloads.go:Suite.String suite name (fmt.Stringer)
internal/workloads/workloads.go:generator.* Generator interface methods
internal/xrand/xrand.go:Rand.State checkpoint write (see cmd/rltrain saveCheckpoint)
internal/xrand/xrand.go:Rand.Geometric policy tests draw their synthetic traces with it (another package)
EOF

. "$(dirname "$0")/keep.sh"
keep_rules="$tmp/keep.txt"
keep_used="$tmp/used.txt"
: > "$keep_used"
unclassified=0
{
    echo "# Reachability ledger: every non-test function that neither the"
    echo "# bench smoke, the CI smokes, cmd/check nor a short perfbench run"
    echo "# reaches, with the reason it stays. Regenerate with: make reach"
    echo "# <file>:<line> <function> -- <keep reason>"
    while read -r loc fn; do
        reason=$(keep_reason "${loc%%:*}:$fn")
        [ "$reason" = UNCLASSIFIED ] && unclassified=$((unclassified + 1))
        echo "$loc $fn -- $reason"
    done < "$tmp/unreached.txt"
} > "$ledger"

n=$(grep -vc '^#' "$ledger" || true)
echo "reach: $n unreached functions, $unclassified unclassified"
status=0
if [ "$unclassified" -gt 0 ]; then
    grep -- '-- UNCLASSIFIED$' "$ledger" >&2
    status=1
fi
keep_stale || status=1
exit "$status"
