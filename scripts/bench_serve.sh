#!/bin/sh
# Serving-path trajectory recorder (make bench-serve): run coltload
# against a self-hosted server and write BENCH_serve.json at the repo
# root, so every PR records where the serving stack stands. The
# workload is the official one from EXPERIMENTS.md: a closed loop of
# zipf-skewed submissions over a prewarmed spec universe, with a
# monitoring client polling /v1/stats — the traffic shape that
# punishes a stats path which holds admission locks while it
# aggregates.
#
# After the single-node run, a second phase boots a 3-node coltd
# fleet (static -peers) and drives it with coltload's -addrs
# round-robin; that summary — with its per-node goodput/p99 and
# proxy/peer-fill counters — lands under the "cluster" key of
# BENCH_serve.json, so the single-node trajectory fields stay
# comparable across PRs.
#
# Usage: scripts/bench_serve.sh [duration]
#   duration           measured window (default 8s; CI smoke uses 2s)
#   PREPR_P99_MS       optional env: p99 ms from the pre-PR build,
#                      measured by running the parent commit's
#                      coltload on the same seed (interleave the two
#                      binaries and take medians — see EXPERIMENTS.md).
#   PREPR_GOODPUT_RPS  optional env: goodput from the pre-PR build.
# When the PREPR_* vars are set, the JSON also records the cross-PR
# speedups.
set -eu

GO=${GO:-go}
DURATION=${1:-8s}
cd "$(dirname "$0")/.."

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

echo "bench-serve: building coltload and coltd"
$GO build -o "$work/coltload" ./cmd/coltload
$GO build -o "$work/coltd" ./cmd/coltd
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

echo "bench-serve: closed loop, 16 clients, 64 specs, zipf_s=1.1, $DURATION window"
"$work/coltload" \
    -clients 16 -specs 64 -zipf-s 1.1 -seed 1 \
    -duration "$DURATION" -refs 2000 -workers 2 -queue 64 \
    -stats-poll 5ms \
    -commit "$commit" \
    ${PREPR_P99_MS:+-prepr-p99-ms "$PREPR_P99_MS"} \
    ${PREPR_GOODPUT_RPS:+-prepr-goodput-rps "$PREPR_GOODPUT_RPS"} \
    -out "$work/single.json"

# ---- 3-node fleet phase -------------------------------------------
# Ports are picked before boot because -peers wiring is static.
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
u1="http://127.0.0.1:$1"; u2="http://127.0.0.1:$2"; u3="http://127.0.0.1:$3"

boot() { # boot <id> <port> <peers>
    "$work/coltd" -node-id "$1" -addr "127.0.0.1:$2" -peers "$3" \
        -cache-dir "$work/cache-$1" -workers 2 -queue 64 \
        -heartbeat-interval 100ms -log-level warn >"$work/$1.log" 2>&1 &
}
boot n1 "$1" "n2=$u2,n3=$u3"; pid1=$!
boot n2 "$2" "n1=$u1,n3=$u3"; pid2=$!
boot n3 "$3" "n1=$u1,n2=$u2"; pid3=$!
for n in n1 n2 n3; do
    for _ in $(seq 1 100); do
        grep -q "listening on http" "$work/$n.log" 2>/dev/null && break
        sleep 0.1
    done
done

echo "bench-serve: 3-node fleet phase ($u1 $u2 $u3)"
"$work/coltload" \
    -addrs "$u1,$u2,$u3" \
    -clients 16 -specs 64 -zipf-s 1.1 -seed 1 \
    -duration "$DURATION" -refs 2000 \
    -stats-poll 5ms \
    -commit "$commit" \
    -out "$work/cluster.json"

# Fold the fleet summary under the single-node record's "cluster"
# key: the top-level fields keep their cross-PR meaning, the fleet
# numbers (and per-node breakdown) ride along.
cat > "$work/merge.go" <<'EOF'
package main

import (
	"encoding/json"
	"os"
)

func main() {
	read := func(p string) map[string]any {
		b, err := os.ReadFile(p)
		if err != nil {
			panic(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			panic(err)
		}
		return m
	}
	single, cluster := read(os.Args[1]), read(os.Args[2])
	single["cluster"] = cluster
	out, err := json.MarshalIndent(single, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(os.Args[3], append(out, '\n'), 0o644); err != nil {
		panic(err)
	}
}
EOF
$GO run "$work/merge.go" "$work/single.json" "$work/cluster.json" BENCH_serve.json
echo "bench-serve: wrote BENCH_serve.json (single-node + cluster phases)"
