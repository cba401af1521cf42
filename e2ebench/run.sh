#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash e2ebench/run.sh --workload paper-pipeline --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout, and the Go command never goes to the
# network: the benchmark module needs only the repository and the
# standard library.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOENV=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C "$root/e2ebench" build -buildvcs=false -o "$build/e2ebench/e2ebench" .
exec "$build/e2ebench/e2ebench" "$@"
