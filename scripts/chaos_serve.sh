#!/bin/sh
# Serving-path chaos test (make chaos-serve), in two phases.
#
# Phase 1 — crash and replay: boot coltd with a disk cache, land one
# job's report, then SIGKILL the daemon mid-load with one job running
# and several queued. Restart on the same cache dir and assert the
# journal replays exactly the accepted-but-unresolved jobs (counted
# straight out of journal.wal), every accepted job's result becomes
# servable (zero lost jobs), and the pre-crash report is returned
# byte-identically. Then flip one byte of that report's cache entry
# and reboot: open admits the entry from its sidecar, the first read
# catches the bad bytes, and the resubmission recomputes the pre-crash
# report byte-identically with one corrupt entry counted.
#
# Phase 2 — fault storm: boot coltd with every fsync failing
# (-disk-faults fsync-fail=1). The daemon must degrade, not die:
# jobs still complete and serve from the memory overlay, /v1/stats
# reports degraded:true, and SIGTERM still exits 0.
set -eu

GO=${GO:-go}
CURL="curl -sS --fail-with-body --max-time 30"
command -v curl >/dev/null || { echo "chaos-serve: curl not found"; exit 1; }

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
    echo "chaos-serve: FAIL: $1" >&2
    echo "---- daemon log ----" >&2
    cat "$work/coltd.log" >&2 || true
    exit 1
}

# start_daemon <log-suffix> [extra flags...]: boot coltd on an
# ephemeral port with the shared cache dir and wait for the startup
# line. Sets $daemon_pid and $base.
start_daemon() {
    suffix=$1; shift
    : >"$work/coltd.log"
    "$work/coltd" -addr 127.0.0.1:0 -cache-dir "$cache" "$@" >"$work/coltd.log" 2>&1 &
    daemon_pid=$!
    base=""
    for _ in $(seq 1 100); do
        base=$(sed -n 's|^coltd: listening on \(http://.*\)$|\1|p' "$work/coltd.log")
        [ -n "$base" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon exited during startup ($suffix)"
        sleep 0.1
    done
    [ -n "$base" ] || fail "daemon never reported its listen address ($suffix)"
    cp "$work/coltd.log" "$work/coltd.$suffix.log" 2>/dev/null || true
}

# submit <spec-json> <out-file>: POST a job and extract its id into $id.
submit() {
    $CURL -X POST -d "$1" "$base/v1/jobs" >"$2" || fail "submission refused: $1"
    id=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$2" | head -n 1)
    [ -n "$id" ] || fail "no job id in $(cat "$2")"
}

# wait_state <id> <want> <tries>: poll a job until it reaches a state.
wait_state() {
    state=""
    for _ in $(seq 1 "$3"); do
        $CURL "$base/v1/jobs/$1" >"$work/status.json" || fail "status fetch failed for $1"
        state=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' "$work/status.json" | head -n 1)
        [ "$state" = "$2" ] && return 0
        case "$state" in failed|canceled) fail "job $1 reached state $state" ;; esac
        sleep 0.2
    done
    fail "job $1 never reached $2 (last state: $state)"
}

echo "chaos-serve: building coltd"
$GO build -o "$work/coltd" ./cmd/coltd

# ---------------------------------------------------------------- phase 1
echo "chaos-serve: phase 1: crash mid-load, replay on restart"
cache="$work/cache"
start_daemon boot1 -workers 1

landed='{"experiment": "table1", "quick": true, "refs": 2000, "seed": 100}'
submit "$landed" "$work/landed.json"
landed_id=$id
wait_state "$landed_id" done 150
$CURL "$base/v1/jobs/$landed_id/report" >"$work/report_precrash.json" \
    || fail "pre-crash report fetch failed"
[ -s "$work/report_precrash.json" ] || fail "empty pre-crash report"

# One slow job occupies the single worker; four quick ones queue
# behind it. SIGKILL lands while the slow one runs, so five accepted
# jobs die unresolved.
slow='{"experiment": "table1", "quick": true, "refs": 2000000, "seed": 1}'
submit "$slow" "$work/slow.json"
slow_id=$id
for k in 2 3 4 5; do
    submit "{\"experiment\": \"table1\", \"quick\": true, \"refs\": 2000, \"seed\": $k}" "$work/tail$k.json"
done
wait_state "$slow_id" running 100

echo "chaos-serve: SIGKILL with one job running, four queued"
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

[ -f "$cache/journal.wal" ] || fail "no journal survived the crash"
accepts=$(grep -c '"op":"accept"' "$cache/journal.wal") || true
commits=$(grep -c '"op":"commit"' "$cache/journal.wal") || true
expect=$((accepts - commits))
echo "chaos-serve: journal holds $accepts accepts, $commits commits ($expect unresolved)"
[ "$expect" -eq 5 ] || fail "expected 5 unresolved accepts in the journal, found $expect"

start_daemon boot2 -workers 1
replayed=$(sed -n 's/.*journal: replayed \([0-9]*\) accepted jobs.*/\1/p' "$work/coltd.log" | head -n 1)
[ "$replayed" = "$expect" ] || fail "replay log says '$replayed' jobs, journal says $expect"

# Every replayed job resolves: the journal's live set drains to zero.
live=""
for _ in $(seq 1 300); do
    $CURL "$base/v1/stats" >"$work/stats.json" || fail "stats fetch failed"
    live=$(sed -n 's/.*"live": \([0-9]*\).*/\1/p' "$work/stats.json" | head -n 1)
    [ "$live" = "0" ] && break
    sleep 0.2
done
[ "$live" = "0" ] || fail "journal live set never drained after replay (live=$live)"

# Zero lost accepted jobs: every pre-crash submission now serves
# straight from the cache, and the pre-crash report is byte-identical.
for k in 100 1 2 3 4 5; do
    refs=2000
    [ "$k" = "1" ] && refs=2000000
    submit "{\"experiment\": \"table1\", \"quick\": true, \"refs\": $refs, \"seed\": $k}" "$work/recheck.json"
    grep -q '"cached": true' "$work/recheck.json" \
        || fail "seed $k was accepted before the crash but is not cached after replay"
    [ "$k" = "100" ] && recheck_id=$id
done
$CURL "$base/v1/jobs/$recheck_id/report" >"$work/report_postcrash.json" \
    || fail "post-crash report fetch failed"
cmp -s "$work/report_precrash.json" "$work/report_postcrash.json" \
    || fail "recovered report differs from the pre-crash bytes"

echo "chaos-serve: draining recovered daemon"
kill -TERM "$daemon_pid"
rc=0; wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 0 ] || fail "recovered daemon exited with status $rc on SIGTERM"
grep -q "drained cleanly" "$work/coltd.log" || fail "recovered daemon missing clean-drain line"
if grep -q '"op":"accept"' "$cache/journal.wal" 2>/dev/null; then
    fail "journal still holds accept records after a clean drain"
fi

# Corrupted entry bytes are never served: boot admits the entry from
# its sidecar without reading it, and the first read verifies it.
echo "chaos-serve: corrupting the landed entry's bytes and rebooting"
landed_hash=$(sed -n 's/.*"hash": "\([0-9a-f]*\)".*/\1/p' "$work/landed.json" | head -n 1)
entry="$cache/$landed_hash.json"
[ -f "$entry" ] || fail "no cache entry for the landed report ($entry)"
printf 'X' | dd of="$entry" bs=1 count=1 conv=notrunc 2>/dev/null
cmp -s "$entry" "$work/report_precrash.json" && fail "the byte flip left the entry unchanged"
start_daemon boot3 -workers 1
submit "$landed" "$work/recomputed.json"
grep -q '"cached": false' "$work/recomputed.json" \
    || fail "corrupted entry served as a cache hit: $(cat "$work/recomputed.json")"
wait_state "$id" done 150
$CURL "$base/v1/jobs/$id/report" >"$work/report_recomputed.json" \
    || fail "recomputed report fetch failed"
cmp -s "$work/report_precrash.json" "$work/report_recomputed.json" \
    || fail "recomputed report differs from the pre-crash bytes"
$CURL "$base/v1/stats" >"$work/stats.json" || fail "stats fetch failed"
grep -q '"corrupt": 1' "$work/stats.json" \
    || fail "corrupted entry not counted: $(cat "$work/stats.json")"
kill -TERM "$daemon_pid"
rc=0; wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 0 ] || fail "daemon exited with status $rc after the corrupt-entry recompute"

# ---------------------------------------------------------------- phase 2
echo "chaos-serve: phase 2: fault storm must degrade, not kill"
cache="$work/cache2"
start_daemon storm -workers 1 -disk-faults fsync-fail=1 -disk-fault-seed 5 -breaker 1 -probe-interval 3600s

submit '{"experiment": "table1", "quick": true, "refs": 2000, "seed": 1}' "$work/storm1.json"
wait_state "$id" done 150
$CURL "$base/v1/jobs/$id/report" >"$work/storm_report.json" || fail "degraded report fetch failed"
[ -s "$work/storm_report.json" ] || fail "empty report under fault storm"

$CURL "$base/v1/stats" >"$work/storm_stats.json" || fail "stats fetch failed under faults"
grep -q '"degraded": true' "$work/storm_stats.json" \
    || fail "fault storm did not trip the breaker: $(cat "$work/storm_stats.json")"

# Still serving after the breaker opened: a second distinct job lands.
submit '{"experiment": "table1", "quick": true, "refs": 2000, "seed": 2}' "$work/storm2.json"
wait_state "$id" done 150

kill -TERM "$daemon_pid"
rc=0; wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 0 ] || fail "degraded daemon exited with status $rc on SIGTERM (degrade-don't-die)"
grep -q "drained cleanly" "$work/coltd.log" || fail "degraded daemon missing clean-drain line"

echo "chaos-serve: OK (replayed $replayed accepted jobs, byte-identical recovery, corrupt entry recomputed, degraded serve survived)"
