#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload gse-alg --seed 1 --seconds 18 --trace 0
#
# Everything the build writes (Go build cache, module and telemetry
# directories, the binary, traced runs' span files) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
