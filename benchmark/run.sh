#!/usr/bin/env bash
# Builds the benchmark harness from the sources in this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) goes under the build directory: $CARGO_TARGET_DIR when set,
# .bench_build otherwise. The toolchain stays offline.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(mkdir -p "${CARGO_TARGET_DIR:-.bench_build}" && cd "${CARGO_TARGET_DIR:-.bench_build}" && pwd)
mkdir -p "$build/go-cache" "$build/go-path" "$build/go-tmp" "$build/config"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$bench_dir" && go build -o "$build/psdf-benchmark" .)
exec "$build/psdf-benchmark" "$@"
