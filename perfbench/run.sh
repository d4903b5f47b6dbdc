#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload llc-zoo --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# stays under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Stamp the commit and dirty flag only when the root is a git checkout.
vcs=false
if [ -d "$root/.git" ]; then vcs=auto; fi
(cd "$root/perfbench" && go build -buildvcs=$vcs -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
