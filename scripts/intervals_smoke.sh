#!/bin/sh
# intervals_smoke.sh — end-to-end smoke of the streaming trace pipeline and
# representative-interval selection.
#
# Exercises the whole chain: tracegen writes a compressed chunked trace,
# -stat reads it back (frame count, accesses, unique blocks), and
# `benchjson -intervals -quick` runs the full-vs-representative comparison
# on one small workload, validating the emitted JSON:
#   - every workload entry must carry a finite kendall_tau;
#   - the representative pass must simulate fewer accesses than the trace.
# rlrsim then replays the chunked trace under LRU, Belady, the RL agent
# (trained on the trace) and its int8 copy, and its output must match
# testdata/rlrsim_mcf.txt line for line.
set -eu

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

echo "intervals-smoke: building tracegen, rlrsim and benchjson..."
go build -o "$dir/tracegen" ./cmd/tracegen
go build -o "$dir/benchjson" ./cmd/benchjson
go build -o "$dir/rlrsim" ./cmd/rlrsim

echo "intervals-smoke: chunked trace round trip..."
"$dir/tracegen" -workload 429.mcf -compress -n 50000 \
    -o "$dir/mcf.llct" 2> /dev/null
"$dir/tracegen" -stat "$dir/mcf.llct" > "$dir/stat.out"
grep -q "accesses:      50000" "$dir/stat.out" || {
    echo "intervals-smoke: FAIL — -stat did not report 50000 accesses" >&2
    cat "$dir/stat.out" >&2
    exit 1
}

echo "intervals-smoke: rlrsim replay of the chunked trace..."
"$dir/rlrsim" -trace "$dir/mcf.llct" -policy lru,belady,rl,rl-int8 -jobs 1 \
    > "$dir/rlrsim.out" 2> /dev/null
if ! diff testdata/rlrsim_mcf.txt "$dir/rlrsim.out" >&2; then
    echo "intervals-smoke: FAIL — rlrsim output differs from testdata/rlrsim_mcf.txt" >&2
    exit 1
fi

echo "intervals-smoke: representative-interval quick benchmark..."
"$dir/benchjson" -intervals -quick -o "$dir/intervals.json" 2> /dev/null

echo "intervals-smoke: validating BENCH_intervals fields..."
for field in kendall_tau speedup coverage_pct measured_per_policy; do
    if ! grep -q "\"$field\"" "$dir/intervals.json"; then
        echo "intervals-smoke: FAIL — report has no $field field" >&2
        exit 1
    fi
done
if grep -q 'NaN' "$dir/intervals.json"; then
    echo "intervals-smoke: FAIL — report contains NaN" >&2
    exit 1
fi

echo "intervals-smoke: OK"
