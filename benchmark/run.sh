#!/usr/bin/env bash
# Entry point for the driver that gates pull requests (BENCHMARK.json names
# it): build the benchmark from the checkout it sits in and run it, with every
# toolchain output — build cache, temp files, binaries — kept inside that
# checkout under .bench_build/. Developers can use `go run ./benchmark`.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/memcached ]; then
	echo "benchmark: $(pwd) is not a tm-memcached checkout (no go.mod, no cmd/memcached)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
