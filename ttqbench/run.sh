#!/usr/bin/env bash
# Builds the time-to-quality benchmark from this checkout and runs it.
# Run from the repository root:
#
#   bash ttqbench/run.sh --workload nmt-2node --seed 1 --seconds 50 --trace 0
#   bash ttqbench/run.sh --report .bench_build/traces/nmt-2node-seed1.json
#
# Every file the Go toolchain and the benchmark write (build cache,
# binary, span files) stays under .bench_build/ in the current
# directory. The build fails, and nothing is run, when the directory
# does not hold the flexflow module the benchmark links against.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off

bin="$out/ttqbench"
(cd "$root/ttqbench" && go build -o "$bin" .) >&2
exec "$bin" "$@"
