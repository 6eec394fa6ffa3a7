#!/usr/bin/env bash
# BENCHMARK.json's command: build psperf from source inside the checkout
# and run it with the arguments given. Everything the build writes —
# the Go build cache and the binary — goes under .bench_build/ at the
# checkout root, so nothing outside the checkout is touched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-mod"
export GOFLAGS= GOWORK=off GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off

# bench/ is its own module (replace pscluster => ../); without the
# engine's sources next to it the build fails and so does this script.
(cd "$root/bench" && go build -o "$build/psperf" ./psperf)

cd "$root"
exec "$build/psperf" "$@"
