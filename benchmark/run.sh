#!/usr/bin/env bash
# Builds the benchmark and runs it; run from the repository root. Every flag
# is passed through (see README.md), e.g.
#
#   bash benchmark/run.sh --workload cold-predict --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries and the traces stay under .bench_build/
# in the repository, so a fresh checkout builds everything once and later
# runs reuse it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/benchmark" && go build -o "$build/wise-benchmark" .)
exec "$build/wise-benchmark" -root "$root" -build-dir "$build" "$@"
