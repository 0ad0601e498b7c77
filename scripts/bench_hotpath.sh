#!/bin/sh
# Hot-path trajectory recorder (make bench-hotpath): run the
# BenchmarkHotPath refs/sec benchmark and write BENCH_hotpath.json at
# the repo root, so every PR records where the per-reference loop
# stands (see EXPERIMENTS.md for the schema and methodology).
#
# Usage: scripts/bench_hotpath.sh [benchtime]
#   benchtime   go test -benchtime value (default 3s)
#   PREPR_NS    optional env: ns/ref of the parent commit's hot loop,
#               measured by running its BenchmarkHotPath in a copy of
#               the parent commit (interleave the two binaries and take
#               medians — see EXPERIMENTS.md). When set, the JSON also
#               records the cross-PR speedup.
set -eu

GO=${GO:-go}
BENCHTIME=${1:-3s}
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT INT TERM

echo "bench-hotpath: running BenchmarkHotPath (-benchtime $BENCHTIME)"
$GO test -run '^$' -bench 'BenchmarkHotPath$' -benchtime "$BENCHTIME" -benchmem . | tee "$out"

awk -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -v prepr="${PREPR_NS:-}" '
/^BenchmarkHotPath/ { ns = $3; allocs = $7 }
END {
    if (ns == "") { print "bench-hotpath: no BenchmarkHotPath result" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"refs_per_sec\": %.0f,\n", 1e9 / ns
    printf "  \"ns_per_ref\": %.1f,\n", ns
    printf "  \"allocs_per_ref\": %s,\n", allocs
    if (prepr != "") {
        printf "  \"prepr_ns_per_ref\": %.1f,\n", prepr
        printf "  \"speedup_vs_prepr\": %.2f,\n", prepr / ns
    }
    printf "  \"commit\": \"%s\"\n", commit
    printf "}\n"
}' "$out" > BENCH_hotpath.json

echo "bench-hotpath: wrote BENCH_hotpath.json:"
cat BENCH_hotpath.json
