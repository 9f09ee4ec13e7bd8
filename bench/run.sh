#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything the Go toolchain writes (build cache, temporary
# files, its telemetry counters, the binary) stays under .bench_build at the
# root; the benchmark's own output goes to bench/out. Both are in .gitignore.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
