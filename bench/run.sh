#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash bench/run.sh [--workload a,b] [--seed n] [--seconds s] [--trace 0|1] ...
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
