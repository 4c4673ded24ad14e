#!/usr/bin/env bash
# Builds fftd and fftperf from the checkout this script lives in, then
# runs fftperf with the given arguments from the checkout's root, e.g.
#
#   bash cmd/fftperf/run.sh --workload fft1d-open --seed 1 --seconds 20 --trace 0
#   bash cmd/fftperf/run.sh --seed 1            # all four workloads
#
# Everything the Go toolchain writes (build cache, module cache, config)
# stays under .bench_build/ in the checkout.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out=.bench_build/fftperf
mkdir -p "$out/tmp"

export GOCACHE="$PWD/$out/gocache"
export GOTMPDIR="$PWD/$out/tmp"
export TMPDIR="$PWD/$out/tmp"
export GOPATH="$PWD/$out/gopath"
export XDG_CONFIG_HOME="$PWD/$out/config"
export GOFLAGS=""
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$out/fftd" ./cmd/fftd
(cd cmd/fftperf && go build -o "../../$out/fftperf" .)

exec "$out/fftperf" -fftd "$out/fftd" -spans "$out" "$@"
