#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact, cache and temporary
# file stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
