#!/bin/sh
# Pre-PR gate: vet, lint, build, race-test the whole module, and smoke-run
# the S benchmark preset. Run from the repo root: ./scripts/check.sh
#
# With -bench-gate, the smoke run is additionally compared against the
# newest committed results/BENCH_*.json and the script fails on any
# regression beyond the comparator's noise threshold (BENCHMARKS.md).
set -eux

bench_gate=0
if [ "${1:-}" = "-bench-gate" ]; then
    bench_gate=1
fi

go vet ./...
mkdir -p results
# A cold lint of the whole module takes a few seconds (LINTING.md); the 120s
# budget fails the gate if it ever grows past that by orders of magnitude,
# and the measured wall-clock lands in the SARIF run properties for CI to
# audit.
go run ./cmd/wise-lint -budget 120s -sarif results/lint.sarif ./...
go build ./...
go test -race ./...
# At GOMAXPROCS=1 the MatrixMarket reader parses its blocks and the feature
# extractor runs its walks inline, the path 1-CPU hosts take and multi-core
# runners otherwise never do; the kernels' worker teams, which tests size
# explicitly, then share one processor, so a spinning worker must yield. A
# session rebuild reconstructs its CSR from the old pack and runs the
# kernels' team there too.
# -count=1: the test cache does not key on GOMAXPROCS.
GOMAXPROCS=1 go test -count=1 ./internal/matrix ./internal/features ./internal/serve ./internal/kernels ./internal/session

# Benchmark smoke: the S preset must run to completion and produce a valid
# BENCH file. The result is discarded unless -bench-gate asked for the
# regression comparison — wall-clock on a loaded dev machine is not a gate
# by default.
bench_out=$(mktemp /tmp/BENCH_check.XXXXXX.json)
go run ./cmd/wise-bench -suite S -o "$bench_out"
if [ "$bench_gate" = 1 ]; then
    baseline=$(ls results/BENCH_*.json 2>/dev/null | sort -V | tail -1)
    if [ -z "$baseline" ]; then
        echo "check.sh: -bench-gate set but no results/BENCH_*.json baseline exists" >&2
        exit 2
    fi
    go run ./cmd/wise-bench -compare "$baseline" "$bench_out"
fi
rm -f "$bench_out"
