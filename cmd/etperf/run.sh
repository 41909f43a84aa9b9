#!/usr/bin/env bash
# Builds etperf from source and runs it with the given arguments, e.g.
#
#	bash cmd/etperf/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary, the Go build cache and every
# temporary file stay under $CARGO_TARGET_DIR (default .bench_build), so
# a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd "$root/cmd/etperf" && go build -o "$out/etperf" .)
exec "$out/etperf" -workdir "$out" "$@"
