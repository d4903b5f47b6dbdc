#!/bin/sh
# pairs.sh — paired end-to-end benchmark runs of two commits.
#
# Clones PARENT and CHANGE into two local git checkouts, so that both
# sides are built the same way as the benchmark itself by the unchanged
# perfbench/run.sh (a checkout has a .git directory, so the binary records
# its commit and dirty flag), and runs WORKLOAD once per seed 1..N on each
# side for perfbench's default run length. The side that runs first
# alternates: parent first on odd seeds, change first on even ones. The
# transcript goes to stdout, and `benchjson -pairs` converts it (one or
# more workloads) into BENCH_pairs.json:
#
#   # pairs parent=<sha> change=<sha> workload=<name>
#   # run side=<parent|change> seed=<n>
#   <perfbench's metadata line and result line>
#   ...
#
# Run from the repository root; commits are measured, not the working
# tree:
#
#   sh scripts/pairs.sh HEAD~1 HEAD llc-zoo 10 > pairs.txt
#   go run ./cmd/benchjson -pairs -o BENCH_pairs.json < pairs.txt
#
# `make bench-pairs` does both for a list of workloads. Each run takes the
# run length plus about 5 s of set-up, and each side builds once per call.
set -eu

if [ $# -ne 4 ]; then
    echo "usage: sh scripts/pairs.sh PARENT CHANGE WORKLOAD N" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
workload=$3
n=$4

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM
for side in parent change; do
    git clone --quiet --shared --no-checkout . "$dir/$side"
done
git -C "$dir/parent" checkout --quiet --detach "$parent"
git -C "$dir/change" checkout --quiet --detach "$change"

run() { # run SIDE SEED
    echo "# run side=$1 seed=$2"
    (cd "$dir/$1" && bash perfbench/run.sh --workload "$workload" \
        --seed "$2" --trace 0)
}

echo "# pairs parent=$parent change=$change workload=$workload"
seed=1
while [ "$seed" -le "$n" ]; do
    echo "pairs: $workload seed $seed of $n" >&2
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
    seed=$((seed + 1))
done
