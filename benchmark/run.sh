#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness inside the checkout
# (build cache included, so nothing is written outside it) and runs it. The
# harness builds knnserve and knnshard the same way on start-up.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$root/.bench_build/config" # where the go command keeps its telemetry counters
mkdir -p "$root/.bench_build/bin"
go build -C benchmark -o "$root/.bench_build/bin/benchharness" .
exec "$root/.bench_build/bin/benchharness" -root "$root" "$@"
