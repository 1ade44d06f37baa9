#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (Go's build cache, its temporary files, the binary) stays under
# .bench_build in the checkout this script sits in; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	# The go command's own files: build cache, module cache, temporary
	# files, and (through XDG_CONFIG_HOME) its telemetry counters.
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOENV=off
	export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
	go build -C "$here" -buildvcs=false -o "$build/bluedbm-bench-ruler" .
)
BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export BENCH_COMMIT
exec "$build/bluedbm-bench-ruler" "$@"
