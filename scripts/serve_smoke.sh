#!/bin/sh
# Serve-path smoke test (make serve-smoke): boot coltd on an ephemeral
# port with a disk cache, submit a quick table1 job, wait for it,
# fetch the report, resubmit the identical spec and assert the second
# serve is a byte-identical cache hit with no additional simulation,
# check the observability surface (healthz/readyz, the X-Colt-Trace
# header, and a valid /metrics exposition with completed jobs on it),
# then SIGTERM the daemon and assert it drains cleanly, leaving the
# entry's meta sidecar (the cache index the next boot reads) on disk.
set -eu

GO=${GO:-go}
CURL="curl -sS --fail-with-body --max-time 30"
command -v curl >/dev/null || { echo "serve-smoke: curl not found"; exit 1; }

work=$(mktemp -d)
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -9 "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "---- daemon log ----" >&2
    cat "$work/coltd.log" >&2 || true
    exit 1
}

echo "serve-smoke: building coltd"
$GO build -o "$work/coltd" ./cmd/coltd

"$work/coltd" -addr 127.0.0.1:0 -cache-dir "$work/cache" >"$work/coltd.log" 2>&1 &
daemon_pid=$!

# The startup line names the bound port.
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's|^coltd: listening on \(http://.*\)$|\1|p' "$work/coltd.log")
    [ -n "$base" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done
[ -n "$base" ] || fail "daemon never reported its listen address"
echo "serve-smoke: daemon at $base"

spec='{"experiment": "table1", "quick": true, "refs": 2000}'

$CURL "$base/v1/healthz" | grep -q '"ok"' || fail "healthz not ok"
$CURL "$base/v1/readyz" | grep -q '"ok"' || fail "readyz not ok while serving"

$CURL -D "$work/submit1.headers" -X POST -d "$spec" "$base/v1/jobs" >"$work/submit1.json" \
    || fail "first submission refused"
grep -qi '^x-colt-trace: [0-9a-f]' "$work/submit1.headers" \
    || fail "submission response carries no X-Colt-Trace header"
id=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$work/submit1.json" | head -n 1)
[ -n "$id" ] || fail "no job id in $(cat "$work/submit1.json")"
grep -q '"cached": true' "$work/submit1.json" && fail "first submission claims a cache hit"

echo "serve-smoke: submitted $id; waiting for completion"
state=""
for _ in $(seq 1 300); do
    $CURL "$base/v1/jobs/$id" >"$work/status.json" || fail "status fetch failed"
    state=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' "$work/status.json" | head -n 1)
    case "$state" in
        done) break ;;
        failed|canceled) fail "job reached state $state: $(cat "$work/status.json")" ;;
    esac
    sleep 0.2
done
[ "$state" = "done" ] || fail "job never completed (last state: $state)"

$CURL "$base/v1/jobs/$id/report" >"$work/report1.json" || fail "report fetch failed"
[ -s "$work/report1.json" ] || fail "empty report"

echo "serve-smoke: resubmitting identical spec"
$CURL -X POST -d "$spec" "$base/v1/jobs" >"$work/submit2.json" \
    || fail "resubmission refused"
grep -q '"cached": true' "$work/submit2.json" \
    || fail "resubmission was not a cache hit: $(cat "$work/submit2.json")"
id2=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$work/submit2.json" | head -n 1)
$CURL "$base/v1/jobs/$id2/report" >"$work/report2.json" || fail "cached report fetch failed"
cmp -s "$work/report1.json" "$work/report2.json" \
    || fail "cached second serve is not byte-identical to the first"

$CURL "$base/v1/stats" >"$work/stats.json" || fail "stats fetch failed"
grep -q '"simulations": 1' "$work/stats.json" \
    || fail "cache hit ran a simulation: $(cat "$work/stats.json")"

echo "serve-smoke: scraping /metrics"
$CURL "$base/metrics" >"$work/metrics.txt" || fail "metrics scrape failed"
# Validity pass over the exposition: every non-comment line must be
# `name{labels} value` with a parseable value, and a real daemon
# exposes a real inventory, not a stub page.
awk '
    /^$/ { next }
    /^#/ { next }
    {
        if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?([0-9][0-9.eE+-]*|\.[0-9][0-9.eE+-]*|[+-]?Inf|NaN)$/) {
            print "serve-smoke: malformed exposition line: " $0; exit 1
        }
        n++
    }
    END { if (n < 20) { print "serve-smoke: only " n " series exposed"; exit 1 } }
' "$work/metrics.txt" || fail "metrics exposition invalid"
awk '$1 ~ /^coltd_jobs_completed_total\{state="done"\}$/ { sum += $2 }
     END { exit !(sum >= 1) }' "$work/metrics.txt" \
    || fail "coltd_jobs_completed_total{state=\"done\"} is zero after a completed job"

echo "serve-smoke: draining via SIGTERM"
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 0 ] || fail "daemon exited with status $rc on SIGTERM"
grep -q "drained cleanly" "$work/coltd.log" || fail "daemon log missing clean-drain line"
ls "$work/cache"/*.meta.json >/dev/null 2>&1 || fail "drained cache dir holds no entry sidecar"

echo "serve-smoke: OK (byte-identical cached serve, clean drain)"
