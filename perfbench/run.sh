#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload fig-wire --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. Everything the build and the
# run leave behind (Go build cache, binary, WAL directories, span
# dumps) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Keep the Go tool's cache, module path and telemetry counters inside
# the checkout too, and never fetch a toolchain.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
