#!/bin/sh
# Builds the benchmark and linqd from this checkout, then runs one
# benchmark invocation; every argument is passed through:
#
#   sh perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. Run it from the root of the repository.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the Go tool's cache, temporary files and user config (telemetry
# counters included) inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/linqd" ./cmd/linqd
exec "$out/perfbench" --linqd "$out/linqd" --workdir "$out" "$@"
