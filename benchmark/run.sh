#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the Go
# toolchain writes (build cache, temporary files, the binary) stays under
# .bench_build in the checkout, so a run touches nothing outside it.
# The working directory of the benchmark is the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOENV=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/fusionbench" .)
cd "$root"
exec "$build/fusionbench" "$@"
