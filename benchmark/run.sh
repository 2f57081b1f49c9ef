#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it. Everything the
# build writes stays under .bench_build/ in the checkout: the Go build
# cache, the toolchain's temporary files and its per-user config
# directory (telemetry counters). Arguments are passed through to the
# runner, which inherits the same environment for building gph-server:
#
#   bash benchmark/run.sh --workload lib_selective --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/gph-benchmark" .)
cd "$root"
exec "$build/gph-benchmark" "$@"
