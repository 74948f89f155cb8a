#!/bin/sh
# Pre-PR gate: vet, lint, build, race-test the whole module, and run every
# package benchmark once. Run from the repo root: ./scripts/check.sh
#
# The benchmark pass is converted into results/BENCH_check.json (git-ignored;
# CI uploads it). One iteration proves the benchmarks run and the converter
# reads them; it is not a measurement.
set -eux

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

# Benchmark smoke: one iteration of every package benchmark, piped through
# the converter. A FAIL line makes wise-bench exit nonzero and write nothing.
tmp=$(mktemp -d /tmp/check-bench.XXXXXX)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/wise-bench" ./cmd/wise-bench
rm -f results/BENCH_check.json
go test -run '^$' -bench . -benchtime 1x ./... | "$tmp/wise-bench" -o results/BENCH_check.json
