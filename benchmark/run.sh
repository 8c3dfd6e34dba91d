#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the toolchain writes (build cache, temp files, the
# binary, result files) stays under .bench_build in that checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
bin="$build/octopus-benchmark"
(cd "$root/benchmark" && go build -o "$bin" .)
exec "$bin" "$@"
