#!/bin/sh
# Run the sagivbench E-series at CI scale and write BENCH_latest.json,
# then compare it against the committed BENCH_baseline.json.
#
#   scripts/bench.sh            # run + compare (exit 1 on regression)
#   BENCH_SCALE=0.1 scripts/bench.sh
#
# Both steps run at GOMAXPROCS=1, the value BENCH_baseline.json
# records: benchcompare refuses reports whose GOMAXPROCS differ, since
# such a comparison measures the machines rather than the code. To
# promote a reviewed run as the new baseline, use
# scripts/bench-update.sh.
set -eu
cd "$(dirname "$0")/.."

scale="${BENCH_SCALE:-0.02}"
export GOMAXPROCS=1
go run ./cmd/sagivbench -scale "$scale" -json BENCH_latest.json
go run ./cmd/benchcompare -baseline BENCH_baseline.json -latest BENCH_latest.json
