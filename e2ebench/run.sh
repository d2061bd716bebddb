#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument goes to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload gimli7 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, results and span files all stay
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
