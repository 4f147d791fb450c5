#!/usr/bin/env bash
# The benchmark's one command. It compiles zbench from the checkout's
# sources into .bench_build/ at the checkout's root and runs it with
# the arguments given; zbench builds probed and zrouted beside itself.
# Everything the Go toolchain writes (build cache, temporary files) is
# kept inside .bench_build/ too, so a run touches nothing outside its
# checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local

# Build output goes to standard error: standard output carries only
# the benchmark's result. The build is a no-op when nothing changed.
go build -C bench -o "$build/bin/zbench" . >&2

exec "$build/bin/zbench" "$@"
