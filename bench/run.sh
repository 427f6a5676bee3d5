#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments.
# Everything the Go toolchain writes stays inside .bench_build/.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C "$src" -o "$out/myraft-bench" .
exec "$out/myraft-bench" "$@"
