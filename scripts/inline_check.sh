#!/bin/sh
# inline_check.sh — fail unless the compiler inlines the per-access
# helpers of the two cache hot paths: the LLC miss-path helpers that
# cachesim.Simulator.Step calls on every access, and the private-level
# directory's probe and hit promotion (uarch's lruDir), which every L1I,
# L1D and L2 access calls.
#
# A helper that stops inlining adds a call frame to each access; when the
# shared miss-protocol helpers did not inline, llc-zoo ran 10–20% slower.
# The check reads the compiler's own inlining report (-gcflags=-m), so it
# depends only on the pinned toolchain and the source.
set -eu

report=$(${GO:-go} build -gcflags=-m ./internal/cache ./internal/cachesim ./internal/uarch 2>&1)

status=0
for fn in '(*Cache).Probe' '(*Cache).InvalidWay' '(*Cache).RecordMissTouch' '(*Simulator).touch' \
    '(*lruDir).probe' '(*lruDir).promote'; do
    if ! printf '%s\n' "$report" | grep -qF "can inline $fn"; then
        echo "inline-check: $fn no longer inlines (go build -gcflags=-m=2 says why)" >&2
        status=1
    fi
done
exit $status
