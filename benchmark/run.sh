#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the checkout's root
# and runs it there, so that the build cache, the binary, trace files and
# WAL scratch directories all stay inside the checkout. Arguments are the
# benchmark's own (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
[ -n "${HOME:-}" ] || export GOPATH="$build/gopath"
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -out "$build/out" "$@"
