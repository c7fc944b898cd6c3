#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given flags. Every build artefact
# — the Go build and module caches, the go command's configuration and
# telemetry, temporary files and the binary — stays under .bench_build/,
# so a run writes nothing outside the checkout.
#
#   bash bench/run.sh --workload plan-hot --seed 1 --seconds 20 --trace 0
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/go-cache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/msoc-benchmark" .)
exec "$build/msoc-benchmark" "$@"
