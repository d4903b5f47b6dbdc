#!/bin/sh
# crash_smoke.sh — end-to-end crash-recovery check for rltrain.
#
# Trains a small model three ways and requires byte-identical output:
#   1. a plain uninterrupted run (the reference),
#   2. a checkpointed run that is SIGKILLed mid-training and resumed,
#   3. (implicitly) the resume path itself, which must reject nothing
#      and converge on the reference bytes.
#
# The run is two epochs over 40,000 LLC accesses, long enough that the
# agent trains: a short trace on the 2 MB LLC is nearly all compulsory
# misses and makes no minibatch update, and the byte comparison would
# then cover only the untrained network. The smoke fails unless the
# reference run's first epoch record in its manifest counts batches > 0.
#
# The kill is timed off the manifest rather than a fixed sleep, so the
# test is robust to machine speed: it lands right after the first
# checkpoint of the second epoch, which follows the first epoch's
# minibatch updates, so the resume restores a trained network, its Adam
# moments and a filled replay ring mid-epoch. If the run happens to
# finish before the kill lands, the resume leg still runs (resuming a
# completed checkpoint is a no-op) and the byte comparison still gates.
set -eu

# The byte comparison at the end is the whole point of the test; without
# cmp we would "pass" vacuously. Fail fast with a clear message instead.
if ! command -v cmp > /dev/null 2>&1; then
    echo "crash-smoke: FAIL — 'cmp' not found on PATH (install diffutils)" >&2
    exit 1
fi

WORKLOAD=429.mcf
ACCESSES=40000
EPOCHS=2
EVERY=10000
KILL_AT=$((ACCESSES + EVERY)) # the second epoch's first checkpoint

# first_epoch_batches prints the batches count of a manifest's first epoch
# record (nothing when it has none).
first_epoch_batches() {
    grep '"kind":"epoch"' "$1" | head -n 1 | sed -n 's/.*"batches":\([0-9]*\).*/\1/p'
}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

echo "crash-smoke: building rltrain..."
go build -o "$dir/rltrain" ./cmd/rltrain

echo "crash-smoke: reference run ($WORKLOAD, $ACCESSES accesses, $EPOCHS epochs)..."
"$dir/rltrain" -workload "$WORKLOAD" -accesses "$ACCESSES" -epochs "$EPOCHS" \
    -manifest "$dir/ref.jsonl" -out "$dir/ref.model" > /dev/null
batches=$(first_epoch_batches "$dir/ref.jsonl")
if [ "${batches:-0}" -eq 0 ]; then
    echo "crash-smoke: FAIL — the first epoch made no minibatch update (batches: ${batches:-none})" >&2
    exit 1
fi
echo "crash-smoke: first epoch trained ($batches minibatch updates)"

echo "crash-smoke: checkpointed run, SIGKILL after the checkpoint at step $KILL_AT..."
"$dir/rltrain" -workload "$WORKLOAD" -accesses "$ACCESSES" -epochs "$EPOCHS" \
    -checkpoint "$dir/run.ckpt" -checkpoint-every "$EVERY" \
    -manifest "$dir/run.jsonl" -out "$dir/res.model" > /dev/null 2>&1 &
pid=$!
# Wait for the manifest to record the checkpoint at KILL_AT (trace capture
# dominates startup), then kill without warning.
i=0
until grep -q "\"kind\":\"checkpoint_save\".*\"steps\":$KILL_AT," "$dir/run.jsonl" 2> /dev/null ||
    [ $i -ge 1200 ]; do
    kill -0 "$pid" 2> /dev/null || break
    i=$((i + 1))
    sleep 0.05
done
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true

if [ ! -f "$dir/run.ckpt" ]; then
    echo "crash-smoke: FAIL — no checkpoint was ever written" >&2
    exit 1
fi
if [ -f "$dir/res.model" ]; then
    echo "crash-smoke: note: run finished before the kill landed;" \
        "still checking the resume path"
    rm -f "$dir/res.model"
fi

echo "crash-smoke: resuming from the checkpoint..."
"$dir/rltrain" -workload "$WORKLOAD" -accesses "$ACCESSES" -epochs "$EPOCHS" \
    -checkpoint "$dir/run.ckpt" -resume -out "$dir/res.model" > /dev/null

if ! cmp -s "$dir/ref.model" "$dir/res.model"; then
    echo "crash-smoke: FAIL — resumed model differs from uninterrupted run" >&2
    exit 1
fi
echo "crash-smoke: OK — resumed model byte-identical to reference"
