#!/usr/bin/env bash
# Builds prism-bench from the checkout it is started in, then runs it with
# the given arguments. Start it from the repository root:
#
#   bash cmd/prism-bench/run.sh --workload fig7-local --seed 4 --seconds 12 --trace 0
#
# The binary, the Go build cache and the benchmark's generated inputs all
# stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
go build -o "$out/prism-bench" ./cmd/prism-bench
exec "$out/prism-bench" -workdir "$out" "$@"
