#!/usr/bin/env bash
# Builds the benchmark and the serving daemon from this checkout's source,
# then runs the benchmark with the given arguments. Run it from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload serve-sweep --seed 3 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch stores all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
# Everything the Go command writes (build cache, temporary files, module
# path, telemetry counters under the user config directory) goes to $build.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOWORK=off

cd "$root/perfbench"
go build -o "$build/perfbench" . >&2
go build -o "$build/disesrvd" repro/cmd/disesrvd >&2
cd "$root"
exec "$build/perfbench" "$@"
