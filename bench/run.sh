#!/bin/sh
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   sh bench/run.sh --workload sim-golden --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go's build cache, the binary, temporary server state, trace.json)
# stays under .bench_build/ in that root.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/colt-bench" .)
exec "$out/colt-bench" -out "$out" "$@"
