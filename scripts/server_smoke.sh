#!/bin/sh
# server_smoke.sh — end-to-end smoke of the cache server and its loadgen.
#
# Two passes:
#   1. Live: boot rlcached (with telemetry: window, topk, span ring) on an
#      ephemeral port, replay a short workload against it with cacheload
#      -addr, and check the client report plus the server's telemetry
#      surface: /metrics (text and prometheus exposition), /window,
#      /topkeys, /spans, and one obstool top -once frame.
#   2. In-process sweep: cacheload boots one server per policy itself and
#      writes the BENCH_server.json shape; the report must carry every
#      required field for every policy and contain no NaN/Inf.
set -eu

WORKLOAD=429.mcf
ACCESSES=4000
POLICIES=lru,drrip

dir=$(mktemp -d)
trap 'rm -rf "$dir"; [ -n "${srv_pid:-}" ] && kill "$srv_pid" 2>/dev/null || true' EXIT INT TERM

echo "server-smoke: building rlcached, cacheload, and obstool..."
go build -o "$dir/rlcached" ./cmd/rlcached
go build -o "$dir/cacheload" ./cmd/cacheload
go build -o "$dir/obstool" ./cmd/obstool

echo "server-smoke: booting rlcached on an ephemeral port..."
"$dir/rlcached" -addr 127.0.0.1:0 -addr-file "$dir/addr" \
    -policy lru -shards 2 -sets 512 -ways 8 -mem-mb 8 \
    -window 30s -topk 8 -obs-trace ring:1024@50 > "$dir/rlcached.log" 2>&1 &
srv_pid=$!

i=0
while [ ! -s "$dir/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "server-smoke: FAIL — rlcached never wrote its address" >&2
        cat "$dir/rlcached.log" >&2
        exit 1
    fi
    kill -0 "$srv_pid" 2>/dev/null || {
        echo "server-smoke: FAIL — rlcached exited early" >&2
        cat "$dir/rlcached.log" >&2
        exit 1
    }
    sleep 0.1
done
addr=$(cat "$dir/addr")

echo "server-smoke: live replay against http://$addr..."
"$dir/cacheload" -addr "http://$addr" -workload "$WORKLOAD" -n "$ACCESSES" \
    -o "$dir/live.json"
grep -q '"hit_rate_pct"' "$dir/live.json" || {
    echo "server-smoke: FAIL — live report has no hit_rate_pct" >&2
    exit 1
}

echo "server-smoke: checking /metrics and /healthz..."
curl -fsS "http://$addr/healthz" > /dev/null
curl -fsS "http://$addr/metrics" > "$dir/metrics"
for m in server_gets server_fills server_request_ns; do
    grep -q "$m" "$dir/metrics" || {
        echo "server-smoke: FAIL — /metrics missing $m" >&2
        cat "$dir/metrics" >&2
        exit 1
    }
done

echo "server-smoke: checking prometheus exposition..."
ctype=$(curl -fsS -o "$dir/prom" -w '%{content_type}' "http://$addr/metrics?format=prometheus")
case "$ctype" in
    *version=0.0.4*) ;;
    *)
        echo "server-smoke: FAIL — prometheus content type is '$ctype'" >&2
        exit 1
        ;;
esac
for fam in server_gets server_request_ns; do
    grep -q "^# HELP $fam " "$dir/prom" && grep -q "^# TYPE $fam " "$dir/prom" || {
        echo "server-smoke: FAIL — exposition missing HELP/TYPE for $fam" >&2
        cat "$dir/prom" >&2
        exit 1
    }
done
grep -q 'server_request_ns_bucket{le="+Inf"}' "$dir/prom" || {
    echo "server-smoke: FAIL — histogram exposition has no +Inf bucket" >&2
    exit 1
}
if grep -q 'NaN' "$dir/prom"; then
    echo "server-smoke: FAIL — NaN in prometheus exposition" >&2
    grep -n 'NaN' "$dir/prom" >&2
    exit 1
fi

echo "server-smoke: checking /window, /topkeys, /spans..."
curl -fsS "http://$addr/window" > "$dir/window"
grep -q '"enabled": true' "$dir/window" || {
    echo "server-smoke: FAIL — /window not enabled" >&2
    cat "$dir/window" >&2
    exit 1
}
grep -q '"qps"' "$dir/window" || {
    echo "server-smoke: FAIL — /window has no qps" >&2
    exit 1
}
curl -fsS "http://$addr/topkeys" > "$dir/topkeys"
grep -q '"misses"' "$dir/topkeys" || {
    echo "server-smoke: FAIL — /topkeys has no miss heavy hitters" >&2
    cat "$dir/topkeys" >&2
    exit 1
}
curl -fsS "http://$addr/spans" > "$dir/spans"
[ -s "$dir/spans" ] || {
    echo "server-smoke: FAIL — /spans is empty despite ring:1024@50 over $ACCESSES accesses" >&2
    exit 1
}
grep -q '"op"' "$dir/spans" || {
    echo "server-smoke: FAIL — /spans records carry no op field" >&2
    head -3 "$dir/spans" >&2
    exit 1
}

echo "server-smoke: obstool top -once..."
"$dir/obstool" top -addr "http://$addr" -once > "$dir/top"
for want in "rlcached top" "window" "top miss keys"; do
    grep -q "$want" "$dir/top" || {
        echo "server-smoke: FAIL — obstool top frame missing '$want'" >&2
        cat "$dir/top" >&2
        exit 1
    }
done

kill "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
srv_pid=

echo "server-smoke: in-process policy sweep ($POLICIES)..."
"$dir/cacheload" -policies "$POLICIES" -workload "$WORKLOAD" -n "$ACCESSES" \
    -shards 1 -sets 256 -ways 8 -mem-mb 4 -o "$dir/bench.json"

for field in policy hit_rate_pct qps p50_us p99_us evictions; do
    grep -q "\"$field\"" "$dir/bench.json" || {
        echo "server-smoke: FAIL — BENCH_server.json shape missing $field" >&2
        exit 1
    }
done
if grep -Eq 'NaN|Inf' "$dir/bench.json"; then
    echo "server-smoke: FAIL — non-finite value in report" >&2
    grep -En 'NaN|Inf' "$dir/bench.json" >&2
    exit 1
fi
npol=$(grep -c '"hit_rate_pct"' "$dir/bench.json")
if [ "$npol" -ne 2 ]; then
    echo "server-smoke: FAIL — expected 2 policy rows, got $npol" >&2
    exit 1
fi

echo "server-smoke: OK"
