#!/bin/sh
# flag_ledger.sh — the flag ledger: why does each command-line flag exist?
#
# Lists every flag the CLIs under cmd/ define (obstool's subcommand flag
# sets included) and marks each flag that an invocation in
# scripts/*_smoke.sh or the Makefile sets. A flag that nothing sets needs a
# keep reason from the KEEP rules below (first matching glob wins), as the
# function ledger of scripts/reach.sh does (both source scripts/keep.sh).
# Both sides are a static scan: flag definitions are read from the Go
# source, and invocations from the scripts with backslash-continued lines
# joined. The definition scan sees a call only when its literal flag name
# is on the same line; TestFlagLedgerCoversEveryFlag (flag_ledger_test.go)
# parses the CLIs and fails on a flag the ledger misses.
#
# The result is testdata/flag_ledger.txt, one line per flag:
#   <cmd>[:<subcommand>]:-<flag> -- set: <files>    (an invocation sets it)
#   <cmd>[:<subcommand>]:-<flag> -- <keep reason>
# The script exits 1 on a flag with no reason (written UNCLASSIFIED) and
# on a KEEP rule that matches no unset flag (a stale reason). With -check
# it writes nothing and also exits 1 when the committed ledger differs.
#
# Run from the repository root:
#
#	sh scripts/flag_ledger.sh          # rewrite the ledger (make reach)
#	sh scripts/flag_ledger.sh -check   # verify it (make vet)
set -eu

ledger=testdata/flag_ledger.txt
check=0
[ "${1:-}" = -check ] && check=1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# Defined flags, one "<cmd>[:<sub>]:-<name>" per line. flag.X registers on
# the command line; any other receiver registers on the FlagSet that the
# last flag.NewFlagSet("<sub>", ...) in the file created.
for f in cmd/*/*.go; do
    case "$f" in *_test.go) continue ;; esac
    cmd=${f#cmd/}
    cmd=${cmd%%/*}
    awk -v cmd="$cmd" '
        /flag\.NewFlagSet\("/ {
            sub(/.*flag\.NewFlagSet\("/, ""); sub(/".*/, ""); set = $0; next
        }
        match($0, /[A-Za-z_]+\.(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Func|BoolFunc|TextVar|BoolVar|IntVar|Int64Var|UintVar|Uint64Var|Float64Var|StringVar|DurationVar|Var)\((&[A-Za-z0-9_.]+, *)?"[^"]+"/) {
            call = substr($0, RSTART, RLENGTH)
            recv = call; sub(/\..*/, "", recv)
            name = call; sub(/^[^"]*"/, "", name); sub(/"$/, "", name)
            if (recv == "flag") print cmd ":-" name
            else if (set != "") print cmd ":" set ":-" name
        }' "$f"
done | sort -u > "$tmp/defined.txt"

# Set flags, one "<key> <file>" per line. A command starts at a token that
# runs a CLI: "$dir/<cmd>" (not the -o of a go build) or ./cmd/<cmd> after
# "run". Its flags are the following -tokens up to a redirection, pipe or
# list operator; for obstool the first other token names the subcommand.
cmds=$(ls cmd | paste -sd' ' -)
for f in scripts/*_smoke.sh Makefile; do
    awk -v file="$f" -v cmds="$cmds" '
        BEGIN { n = split(cmds, c, " "); for (i = 1; i <= n; i++) cli[c[i]] = 1 }
        /\\$/ { sub(/\\$/, ""); buf = buf $0 " "; next }
        {
            line = buf $0; buf = ""
            nt = split(line, t, /[ \t]+/)
            for (i = 1; i <= nt; i++) {
                tok = t[i]; gsub(/"/, "", tok)
                name = tok; sub(/.*\//, "", name)
                if (!(name in cli)) continue
                if (tok ~ /^\$dir\// && t[i-1] != "-o") ;
                else if (tok ~ /^\.\/cmd\// && t[i-1] == "run") ;
                else continue
                set = ""
                for (j = i + 1; j <= nt; j++) {
                    a = t[j]
                    if (a ~ /^([0-9]?[<>]|[|;&])/) break
                    if (a ~ /^--?[A-Za-z]/) {
                        sub(/^--/, "-", a); sub(/=.*/, "", a)
                        print (set == "" ? name : name ":" set) ":" a, file
                    } else if (name == "obstool" && set == "" && j == i + 1) {
                        set = a
                    }
                }
            }
        }' "$f"
done | sort -u > "$tmp/set.txt"

# KEEP rules: "<glob over cmd[:sub]:-flag> <reason>"; first match wins.
cat > "$tmp/keep.txt" <<'EOF'
benchjson:-jobs the worker count of make bench-intervals, which BENCH_intervals.json records beside its wall-clock speedups (README "Streaming traces")
cacheload:-qps README "Serving the policy zoo": rate-limited replay against a live server
check:-class EXPERIMENTS "Correctness harness": one trace class when chasing a divergence
check:-n README "Correctness harness": longer traces per cell
check:-pair README "Correctness harness": one policy pair when chasing a divergence
check:-seeds README "Correctness harness": more seeds per cell
check:-v README "Correctness harness": print every cell as it runs
check:-replay README "Correctness harness": re-runs the counterexample that a divergence prints
experiments:-list README "Install & quickstart"
experiments:-cpuprofile README "Hot-path performance & profiling"
experiments:-memprofile README "Hot-path performance & profiling"
experiments:-obs-* README "Observability": event sink and live endpoint of a suite run
overhead:-* README "Other tools": Table I at any geometry (capacity, ways, line size)
rlcached:-max-object EXPERIMENTS "Serving": the admission bound above which a PUT bypasses
rlrsim:-workload README "Observability": replay of one workload's captured trace
rlrsim:-cpuprofile EXPERIMENTS "Profiling flags": every runner takes the profiling flags
rlrsim:-memprofile EXPERIMENTS "Profiling flags": every runner takes the profiling flags
rlrsim:-obs-* README "Observability": event sink and live endpoint of a replay
rltrain:-cpuprofile README "Hot-path performance & profiling"
rltrain:-memprofile EXPERIMENTS "Profiling flags": every runner takes the profiling flags
rltrain:-int8-eval README "Hot-path performance" and EXPERIMENTS: the int8 accuracy check on one workload
rltrain:-obs-addr README "Observability": live metrics of a training run
tracegen:-frame DESIGN.md cmd/tracegen: the chunked container's frame size
tracegen:-list the workload names; rlrsim's -workload help points to it
EOF

. "$(dirname "$0")/keep.sh"
keep_rules="$tmp/keep.txt"
keep_used="$tmp/used.txt"
: > "$keep_used"
unclassified=0
{
    echo "# Flag ledger: every flag of the CLIs under cmd/, with the smoke or"
    echo "# Makefile invocation that sets it or the reason it stays."
    echo "# Regenerate with: sh scripts/flag_ledger.sh (make reach)"
    echo "# <cmd>[:<subcommand>]:-<flag> -- set: <files> | <keep reason>"
    while read -r key; do
        files=$(awk -v k="$key" '$1 == k { print $2 }' "$tmp/set.txt" | paste -sd' ' -)
        if [ -n "$files" ]; then
            echo "$key -- set: $files"
            continue
        fi
        reason=$(keep_reason "$key")
        [ "$reason" = UNCLASSIFIED ] && unclassified=$((unclassified + 1))
        echo "$key -- $reason"
    done < "$tmp/defined.txt"
} > "$tmp/ledger.txt"

status=0
nset=$(grep -c -- '-- set: ' "$tmp/ledger.txt" || true)
nflags=$(wc -l < "$tmp/defined.txt")
echo "flag-ledger: $nflags flags, $nset set by an invocation, $unclassified unclassified"
if [ "$unclassified" -gt 0 ]; then
    grep -- '-- UNCLASSIFIED$' "$tmp/ledger.txt" >&2
    status=1
fi
keep_stale || status=1

if [ "$check" = 1 ]; then
    if ! diff -u "$ledger" "$tmp/ledger.txt" >&2; then
        echo "flag-ledger: $ledger is stale; regenerate with: sh scripts/flag_ledger.sh" >&2
        status=1
    fi
else
    cp "$tmp/ledger.txt" "$ledger"
fi
exit "$status"
