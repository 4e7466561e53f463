#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash _perfbench/run.sh --workload paper --seed 42 --seconds 15 --trace 0
#
# The build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout; the first build compiles the standard
# library into that cache and takes a minute or two.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
