#!/bin/sh
# Cluster smoke test (make cluster-smoke): boot a 3-node coltd fleet
# with static -peers wiring, check every node's readyz reports the
# full ring, submit one spec through two different nodes and assert
# exactly one of the fleet's daemons simulated it (consistent-hash
# ownership proxies the rest), read the report through every node and
# assert byte-identical bytes (peer cache fill), then SIGKILL one node
# and assert the survivors shrink the ring and keep serving every
# previously served hash from cache with zero new simulations.
set -eu

GO=${GO:-go}
CURL="curl -sS --fail-with-body --max-time 30"
command -v curl >/dev/null || { echo "cluster-smoke: curl not found"; exit 1; }

work=$(mktemp -d)
pid1=""; pid2=""; pid3=""
cleanup() {
    for p in "$pid1" "$pid2" "$pid3"; do
        if [ -n "$p" ] && kill -0 "$p" 2>/dev/null; then
            kill -9 "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

fail() {
    echo "cluster-smoke: FAIL: $1" >&2
    for n in n1 n2 n3; do
        echo "---- $n log ----" >&2
        cat "$work/$n.log" >&2 2>/dev/null || true
    done
    exit 1
}

echo "cluster-smoke: building coltd"
$GO build -o "$work/coltd" ./cmd/coltd

# Static -peers wiring needs every URL before any node boots, so the
# ports are picked up front (bind :0 three times, release, reuse).
# The window between release and reuse is the standard smoke-test
# race; loopback + an idle CI box make it vanishingly rare.
cat > "$work/freeports.go" <<'EOF'
package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
)

func main() {
	n, _ := strconv.Atoi(os.Args[1])
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		lns[i] = ln
	}
	for _, ln := range lns {
		fmt.Println(ln.Addr().(*net.TCPAddr).Port)
		ln.Close()
	}
}
EOF
set -- $($GO run "$work/freeports.go" 3)
p1=$1; p2=$2; p3=$3
u1="http://127.0.0.1:$p1"; u2="http://127.0.0.1:$p2"; u3="http://127.0.0.1:$p3"
echo "cluster-smoke: ports $p1 $p2 $p3"

boot() { # boot <id> <port> <peers>
    "$work/coltd" -node-id "$1" -addr "127.0.0.1:$2" -peers "$3" \
        -cache-dir "$work/cache-$1" -heartbeat-interval 100ms \
        -log-level warn >"$work/$1.log" 2>&1 &
}
boot n1 "$p1" "n2=$u2,n3=$u3"; pid1=$!
boot n2 "$p2" "n1=$u1,n3=$u3"; pid2=$!
boot n3 "$p3" "n1=$u1,n2=$u2"; pid3=$!

for n in n1 n2 n3; do
    ok=""
    for _ in $(seq 1 100); do
        if grep -q "listening on http" "$work/$n.log" 2>/dev/null; then ok=1; break; fi
        sleep 0.1
    done
    [ -n "$ok" ] || fail "$n never reported its listen address"
done
echo "cluster-smoke: fleet up ($u1 $u2 $u3)"

# Every node's readyz must report the full ring with both peers alive.
for u in "$u1" "$u2" "$u3"; do
    ring=""
    for _ in $(seq 1 50); do
        $CURL "$u/v1/readyz" >"$work/readyz.json" || fail "readyz fetch failed on $u"
        if grep -q '"ring_size": 3' "$work/readyz.json" \
            && grep -q '"peers_alive": 2' "$work/readyz.json"; then ring=1; break; fi
        sleep 0.1
    done
    [ -n "$ring" ] || fail "$u readyz never showed ring_size 3 / 2 alive: $(cat "$work/readyz.json")"
done
echo "cluster-smoke: ring converged on all nodes"

spec='{"experiment": "table1", "quick": true, "refs": 2000}'

# Submit through two different nodes. Whichever of them does not own
# the spec's hash proxies to the owner — so across the two
# submissions at least one is a proxy, and the fleet still runs the
# simulation exactly once.
$CURL -D "$work/h1" -X POST -d "$spec" "$u1/v1/jobs" >"$work/s1.json" || fail "submit via n1 refused"
$CURL -D "$work/h2" -X POST -d "$spec" "$u2/v1/jobs" >"$work/s2.json" || fail "submit via n2 refused"
id1=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$work/s1.json" | head -n 1)
[ -n "$id1" ] || fail "no job id in $(cat "$work/s1.json")"

state=""
for _ in $(seq 1 300); do
    $CURL "$u1/v1/jobs/$id1" >"$work/status.json" || fail "status fetch failed"
    state=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' "$work/status.json" | head -n 1)
    case "$state" in
        done) break ;;
        failed|canceled) fail "job reached state $state: $(cat "$work/status.json")" ;;
    esac
    sleep 0.2
done
[ "$state" = "done" ] || fail "job never completed (last state: $state)"

# The report must be byte-identical through every node: the owner
# serves its cache, the others peer-fill (hash-verified) on the way
# through.
$CURL "$u1/v1/jobs/$id1/report" >"$work/report1.json" || fail "report via n1 failed"
[ -s "$work/report1.json" ] || fail "empty report"
for u in "$u2" "$u3"; do
    $CURL "$u/v1/jobs/$id1/report" >"$work/reportX.json" || fail "report via $u failed"
    cmp -s "$work/report1.json" "$work/reportX.json" || fail "report via $u not byte-identical"
done

# One simulation across the fleet, and at least one ownership proxy.
sims=$(for u in "$u1" "$u2" "$u3"; do
    $CURL "$u/v1/stats" | sed -n 's/.*"simulations": \([0-9]*\).*/\1/p' | head -n 1
done | awk '{ s += $1 } END { print s }')
[ "$sims" = "1" ] || fail "fleet ran $sims simulations for one spec, want 1"
proxied=$(for u in "$u1" "$u2" "$u3"; do
    $CURL "$u/metrics" | awk '$1 == "coltd_cluster_proxied_submits_total" { print $2 }'
done | awk '{ s += $1 } END { print s }')
[ "$proxied" -ge 1 ] || fail "no submission was proxied to its ring owner"
fills=$(for u in "$u1" "$u2" "$u3"; do
    $CURL "$u/metrics" | awk '$1 == "coltd_cluster_peer_fill_total{outcome=\"ok\"}" { print $2 }'
done | awk '{ s += $1 } END { print s }')
[ "$fills" -ge 1 ] || fail "no peer cache fill happened despite cross-node report reads"
echo "cluster-smoke: 1 simulation, $proxied proxied submit(s), $fills peer fill(s)"

# Kill n3 the hard way. The survivors must notice (ring shrinks to 2)
# and keep serving the previously served hash from cache — zero new
# simulations.
echo "cluster-smoke: SIGKILL n3"
kill -9 "$pid3" 2>/dev/null || true
wait "$pid3" 2>/dev/null || true
pid3=""
for u in "$u1" "$u2"; do
    shrunk=""
    for _ in $(seq 1 100); do
        $CURL "$u/v1/readyz" >"$work/readyz.json" || fail "readyz fetch failed on $u after kill"
        if grep -q '"ring_size": 2' "$work/readyz.json"; then shrunk=1; break; fi
        sleep 0.1
    done
    [ -n "$shrunk" ] || fail "$u never shrank its ring after the kill: $(cat "$work/readyz.json")"
done

for u in "$u1" "$u2"; do
    $CURL -X POST -d "$spec" "$u/v1/jobs" >"$work/sk.json" || fail "post-kill submit via $u refused"
    grep -q '"cached": true' "$work/sk.json" || fail "post-kill submit via $u not served from cache: $(cat "$work/sk.json")"
    idk=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$work/sk.json" | head -n 1)
    $CURL "$u/v1/jobs/$idk/report" >"$work/reportK.json" || fail "post-kill report via $u failed"
    cmp -s "$work/report1.json" "$work/reportK.json" || fail "post-kill report via $u not byte-identical"
done
sims=$(for u in "$u1" "$u2"; do
    $CURL "$u/v1/stats" | sed -n 's/.*"simulations": \([0-9]*\).*/\1/p' | head -n 1
done | awk '{ s += $1 } END { print s }')
[ "$sims" -le 1 ] || fail "survivors re-simulated after the kill ($sims simulations)"

echo "cluster-smoke: OK (ring converged, 1 fleet-wide simulation, byte-identical serves, kill survived)"
