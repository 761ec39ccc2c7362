#!/usr/bin/env bash
# Builds and runs the repository benchmark from the repository root:
#
#   bash benchmark/run.sh --workload cold-search --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache and the go command's own
# telemetry counters included, stays under .bench_build at the repository
# root; the go command is kept offline and on the local toolchain.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
go -C benchmark build -o "$out/bin/holmes-bench" .
exec "$out/bin/holmes-bench" "$@"
