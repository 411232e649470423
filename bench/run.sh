#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs one workload:
#
#   bash bench/run.sh --workload novel_xml --seed 7 --seconds 20 --trace 0
#
# Everything the go command writes — build cache, config directory,
# module path, the binary — stays under .bench_build/ in the current
# directory, which must be the root of the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

# go1.23+ starts a detached telemetry child, which outlives the command,
# whenever its config directory holds no telemetry/local/upload.token —
# and a config directory inside a fresh checkout never does. With the
# mode file saying off it starts none and writes no token. This must
# happen before the first go invocation.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
