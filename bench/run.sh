#!/usr/bin/env bash
# Entry point named in BENCHMARK.json; run it from the root of a checkout:
#
#   bash bench/run.sh --workload pop_sweep --seed 1 --seconds 24 --trace 0
#
# It builds bench/cmd/dfbench from source into .bench_build/ and runs it with
# the arguments given. Go's caches are pointed into .bench_build/ too, so the
# benchmark reads and writes only inside the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/dfbench" ./cmd/dfbench)
exec "$build/dfbench" -tmp "$build" "$@"
