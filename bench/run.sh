#!/usr/bin/env bash
# Builds the benchmark harness and castand from this checkout, then runs
# the harness with the given arguments. Everything the build and the run
# write stays inside the checkout: binaries, the Go build cache and
# scratch files under .bench_build/, span files under bench/out/.
#
# The build is not part of setup_s: it happens once per checkout, and
# setup_s is what a workload does before its first timed sample.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C bench -o "$build/bin/castan-bench" . >&2
go build -o "$build/bin/castand" ./cmd/castand >&2
exec "$build/bin/castan-bench" "$@"
