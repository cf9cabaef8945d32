#!/usr/bin/env bash
# Builds the benchmark harness and the memcond daemon from this checkout
# and runs the harness with the given arguments. Run it from the
# repository root:
#
#   bash membench/run.sh --workload serve --seed 3 --seconds 25 --trace 0
#
# Everything the build and the runs write stays inside the checkout:
# Go's build cache, temporary files and telemetry counters (kept under
# the user config directory) under .bench_build, run outputs under
# .bench_out.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd/memcond ]]; then
	echo "membench: run from the repository root; the program's sources are missing here" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
mkdir -p "$build/bin" "$build/tmp" "$build/config"

(cd membench && go build -o "$build/bin/membench" . && go build -o "$build/bin/memcond" memcon/cmd/memcond) >&2
exec "$build/bin/membench" "$@"
