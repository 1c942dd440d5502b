#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given, e.g.
#   bash benchmark/run.sh --workload lib_nav_mem --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build cache, temporary files and the binary
# stay under .bench_build/, span files and store images under benchmark/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/natix-benchmark" .
exec "$build/natix-benchmark" "$@"
