#!/usr/bin/env bash
# Builds resolverd, authserver and the benchmark from this checkout into
# .bench_build, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 15 --trace 0
#
# Run it from the checkout root. Every build product and Go cache stays
# under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off
go build -o "$out/bin/" ./cmd/resolverd ./cmd/authserver
(cd perfbench && go build -o "$out/bin/perfbench" .)
# The generator is one process; keep it within the host's CPUs.
export GOMAXPROCS=$(nproc)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
