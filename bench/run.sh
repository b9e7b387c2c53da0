#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the driver from source into
# .bench_build/ inside the checkout (the Go build cache too, so nothing is
# written outside it) and runs it with the caller's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
