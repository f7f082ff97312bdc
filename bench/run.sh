#!/usr/bin/env bash
# Builds the benchmark inside the checkout (.bench_build/, Go caches
# included, so nothing outside the checkout is written) and runs it from
# the checkout root with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/lipstick-bench" .)
cd "$root"
exec "$build/lipstick-bench" "$@"
