#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload storm --seed 1 --seconds 10 --trace 0
#
# Every build and run product goes under .bench_build/ at the checkout
# root: the Go build cache, the binary, and the traced passes' spans
# and CPU profiles. Build output goes to standard error, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build/perfbench-trace" "$@"
