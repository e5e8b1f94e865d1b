#!/usr/bin/env bash
# Builds symphonyd from this checkout and the benchmark, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash symbench/run.sh --workload demo-pages --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/symphonyd" ./cmd/symphonyd >&2
(cd symbench && go build -o "$out/symbench" .) >&2
exec "$out/symbench" "$@"
