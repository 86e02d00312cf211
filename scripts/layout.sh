#!/usr/bin/env bash
# Where a benchmark build places its hot loop: for each hot symbol of
# the cluster_churn profile, its size and the offset at which it starts
# within a 64-byte cache line. Builds of near-identical source can differ
# by ~10 % on cluster_churn from this placement alone, so record it
# beside each pair of runs. Reads the binary with nm; builds nothing.
#
#   scripts/layout.sh [binary]
#
# The default binary is the one benchmark/run.sh builds. A symbol that
# is not listed was inlined into its callers.
set -euo pipefail
cd "$(dirname "$0")/.."
bin="${1:-${CARGO_TARGET_DIR:-target}/release/fireworks-benchmark}"
[ -f "$bin" ] || { echo "$0: no binary at $bin" >&2; exit 2; }
hot='Vm>?::(run|binary|heat)$|::int_binary$|ChunkStore>?::retain_chunk$'
printf '%-64s %7s %5s\n' symbol bytes @line
nm -C -n -S "$bin" | grep -E " [tT] .*($hot)" | while read -r addr size _ name; do
    printf '%-64s %7d %5d\n' "$name" $((16#$size)) $((16#$addr % 64))
done
