#!/usr/bin/env bash
# Runs the full set twice on this commit, plus one traced set, and checks
# that the two end-to-end sets agree: every end-to-end metric within its
# own bound, every virtual-clock value, exact count and sim_fingerprint
# identical. The three documents land in benchmark/results/, which is
# committed: the baseline later changes are measured against.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
args=(--seconds "$seconds" "$@")
mkdir -p benchmark/results
bash benchmark/run.sh "${args[@]}" --trace 0 > benchmark/results/end_to_end.1.json
bash benchmark/run.sh "${args[@]}" --trace 0 > benchmark/results/end_to_end.2.json
bash benchmark/run.sh "${args[@]}" --trace 1 > benchmark/results/per_layer.json
python3 benchmark/compare.py BENCHMARK.json \
    benchmark/results/end_to_end.1.json benchmark/results/end_to_end.2.json
