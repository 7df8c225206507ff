#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. The Go build cache lives in the checkout too, so
# nothing outside it is read or written; the first build in a checkout
# compiles the standard library and takes about a minute.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
