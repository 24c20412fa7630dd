#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; the
# arguments pass through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload tree-read --seed 1 --seconds 10 --trace 0
#
# Every file it writes (build cache, binary, scratch files, span dumps)
# goes under $CARGO_TARGET_DIR, default .bench_build, in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOPATH=$out/go-path XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
