#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the given flags. Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload lattice-k --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all stay
# under .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C benchmark build -buildvcs=false -o "$build/microbench" .
exec "$build/microbench" "$@"
