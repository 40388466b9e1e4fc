#!/usr/bin/env bash
# Builds everything, runs the full test suite and regenerates every table
# and figure of the paper from the scenario catalog (the coll group's
# rendering includes each implementation's collective decision table).
# Outputs land in
# test_output.txt and bench_output.txt at the repository root; the campaign
# report (per-scenario digests and metrics) in campaign-results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

build/src/tools/gridsim campaign --render --out campaign-results 2>&1 |
  tee bench_output.txt
echo "done: see test_output.txt and bench_output.txt"
