#!/usr/bin/env bash
# Builds the benchmark from this checkout into .bench_build/ and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload figs -seed 2011 -seconds 10 -trace 0
#
# Every file the build and the runs write stays under .bench_build/: the
# Go build cache, temporary files, the binaries, result JSON and spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
