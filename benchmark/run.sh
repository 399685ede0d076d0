#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the harness from source into
# .bench_build at the checkout root and runs it with the arguments
# given. Everything the go tool reads or writes besides the sources
# (build cache, work directory, GOPATH, and the config directory that
# holds its env file and telemetry counters) is kept inside
# .bench_build too, so nothing outside the checkout is touched; the
# harness builds cmd/joinserve in the same environment.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -root "$root" "$@"
