#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files go under
# $CARGO_TARGET_DIR (default .bench_build), so the run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/gotmp
export GOPATH=$out/gopath
export GOMODCACHE=$out/gomodcache
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
