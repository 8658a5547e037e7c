#!/usr/bin/env bash
# Builds cerfixd and the benchmark from the checkout's sources, then
# runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload point-fix --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/, so
# nothing is read or written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/cerfixd" ./cmd/cerfixd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -cerfixd "$out/cerfixd" -work "$out/work" "$@"
