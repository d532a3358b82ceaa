#!/usr/bin/env bash
# Builds the benchmark from the checkout that holds this script and runs
# one workload from the checkout's root. Every build artefact, cache and
# scratch file stays under <checkout>/.bench_build.
#
#   bash perfbench/run.sh --workload hits --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's user settings and telemetry
# counters inside the checkout too.
(cd "$root/perfbench" && GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= go build -buildvcs=false -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" -workdir "$build" "$@"
