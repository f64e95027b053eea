#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload stream-corpus --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Everything the build leaves behind (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local

go -C bench build -o "$build/turnstile-perf" .
exec "$build/turnstile-perf" "$@"
