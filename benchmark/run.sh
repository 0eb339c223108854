#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments go to the
# program (see README.md). Everything the build and the run write stays
# under .bench_build/ and benchmark/out/ in the checkout: the Go build
# cache, module cache and HOME are pointed there, nothing is fetched
# from the network, and the toolchain is the one already installed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home"
HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath" \
GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local \
	go build -C benchmark -o "$build/procctl-benchmark" .
exec "$build/procctl-benchmark" "$@"
