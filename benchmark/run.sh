#!/usr/bin/env bash
# Builds the programs under test and the benchmark from this checkout's
# source into .bench_build/ (build cache included, so nothing is written
# outside the checkout) and runs the benchmark with the caller's flags.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/wdserve ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a wdsparql checkout" >&2
	exit 2
fi
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOTOOLCHAIN=local
go build -o "$build/" ./cmd/wdserve ./cmd/wdsnap
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" -bin "$build" "$@"
