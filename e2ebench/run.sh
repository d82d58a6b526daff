#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and runs
# it. Run from the repository root, for example:
#
#   bash e2ebench/run.sh --workload paper --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The Go toolchain keeps its caches, module path and telemetry counters
# under these directories; point all of them into the build directory.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
