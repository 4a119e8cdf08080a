#!/usr/bin/env bash
# Builds the benchmark and the dnsd daemon from this checkout, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload scan-cached --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and scratch files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
go build -o "$out/dnsd" ./cmd/dnsd >&2
exec "$out/perfbench" -dnsd "$out/dnsd" -work "$out/work" "$@"
