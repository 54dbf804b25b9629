#!/usr/bin/env bash
# Runs the intra-rank kernel microbenchmark (move / collide / deposit at
# serial vs 2 vs 4 kernel lanes, on a scattered and a cell-sorted copy of
# one population) and leaves BENCH_kernels.json at the repo root.
#
#   scripts/bench_kernels.sh [build-dir] [extra bench_kernels flags...]
#
# The committed BENCH_kernels.json doubles as the perf-regression baseline.
# To gate a change, write the fresh run somewhere else and compare:
#
#   build/bench/bench_kernels --out /tmp/fresh.json
#   scripts/check_bench_regression.py /tmp/fresh.json        # exit 1 on >15% slowdown
#   scripts/check_bench_regression.py /tmp/fresh.json --tolerance 0.25
#
# Re-run this script (which overwrites BENCH_kernels.json in place) only
# when intentionally refreshing the baseline on the reference machine.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
shift || true

cmake -B "$BUILD" -S . -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target bench_kernels -j

"$BUILD"/bench/bench_kernels --out BENCH_kernels.json "$@"
echo "wrote $(pwd)/BENCH_kernels.json"
