#!/bin/sh
# obs_smoke.sh — end-to-end smoke of the observability layer.
#
# Runs a short traced training run with a run manifest and an event trace,
# then strict-validates both artifacts with obstool:
#   - the manifest must be parseable JSONL and contain run_start, at least
#     one epoch telemetry record, and run_end;
#   - the event trace must be parseable JSONL and non-empty.
# Then runs the experiments CLI twice: a traced quick fig1 grid on the
# worker pool with -keep-going and -timeout, whose event trace must
# validate too, and the tab1 table as CSV, whose header line is checked.
# Last, the quick fig3 run with -chart must print the Figure 3 heat map's
# last feature row.
set -eu

WORKLOAD=429.mcf
ACCESSES=8000
EPOCHS=2
TAB1_HEADER='policy,uses PC,overhead (KB),source'

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

echo "obs-smoke: building rltrain, obstool and experiments..."
go build -o "$dir/rltrain" ./cmd/rltrain
go build -o "$dir/obstool" ./cmd/obstool
go build -o "$dir/experiments" ./cmd/experiments

echo "obs-smoke: traced training run ($WORKLOAD, $ACCESSES accesses, $EPOCHS epochs)..."
"$dir/rltrain" -workload "$WORKLOAD" -accesses "$ACCESSES" -epochs "$EPOCHS" \
    -manifest "$dir/run.jsonl" -obs-trace "jsonl:$dir/events.jsonl@10" \
    -progress 0 > /dev/null

echo "obs-smoke: validating the run manifest..."
"$dir/obstool" validate "$dir/run.jsonl"
for kind in run_start epoch run_end; do
    if ! grep -q "\"kind\":\"$kind\"" "$dir/run.jsonl"; then
        echo "obs-smoke: FAIL — manifest has no $kind record" >&2
        exit 1
    fi
done

echo "obs-smoke: validating the event trace..."
"$dir/obstool" validate -events "$dir/events.jsonl"

echo "obs-smoke: rendering the loss curve..."
"$dir/obstool" curve -metric loss "$dir/run.jsonl" > /dev/null

echo "obs-smoke: traced experiment grid (fig1, quick scale, 2 workers)..."
"$dir/experiments" -run fig1 -scale quick -jobs 2 -keep-going -timeout 5m \
    -obs-trace "jsonl:$dir/exp.jsonl@100" > /dev/null
"$dir/obstool" validate -events "$dir/exp.jsonl"

echo "obs-smoke: experiment table as CSV (tab1)..."
"$dir/experiments" -run tab1 -csv > "$dir/tab1.csv"
header=$(sed -n '/^# tab1$/{n;p;q;}' "$dir/tab1.csv")
if [ "$header" != "$TAB1_HEADER" ]; then
    echo "obs-smoke: FAIL — tab1 CSV header is '$header', want '$TAB1_HEADER'" >&2
    exit 1
fi

echo "obs-smoke: Figure 3 heat map (fig3, quick scale, -chart)..."
"$dir/experiments" -run fig3 -scale quick -chart > "$dir/fig3.txt"
if ! grep -q '^line recency ' "$dir/fig3.txt"; then
    echo "obs-smoke: FAIL — fig3 -chart output has no 'line recency' heat-map row" >&2
    exit 1
fi

echo "obs-smoke: OK"
