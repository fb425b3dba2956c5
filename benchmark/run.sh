#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes — the go build cache included — stays inside the checkout,
# under .bench_build/. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload ingest_bulk --seed 42 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOWORK=off
(cd "$here" && go build -o "$build/bin/wfbench" .)
cd "$root"
exec "$build/bin/wfbench" "$@"
