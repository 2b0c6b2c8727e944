#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload matrix --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact and cache goes under
# .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
