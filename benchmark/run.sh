#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--trace [0|1]]
#
# With --workload: that workload in one process; the last line of
# standard output is its result object. Without: one process per
# workload, all detail documents as one JSON document. Non-zero exit on
# any correctness failure. A traced run also writes
# benchmark/out/<workload>.trace.json (Chrome trace).
#
# The target directory is $CARGO_TARGET_DIR if set, else the repo's own
# target/, so the simulator's crates are compiled once for both.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/fireworks-benchmark" "$@"
