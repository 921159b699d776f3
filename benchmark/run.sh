#!/usr/bin/env bash
# Entry point for automated runs (BENCHMARK.json's command): builds the
# benchmark from source and runs it from this directory, keeping everything
# it leaves behind — the build cache, temporary files, the toolchain's own
# counters, the binary, and the set and trace files — inside the checkout's
# .bench_build/. A later -out on the command line still wins.
# By hand, `cd benchmark && go run . -workload all` does the same with the
# user's own Go cache and writes to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/ppsbenchmark" .
exec "$build/ppsbenchmark" -out "$build/out" "$@"
