#!/usr/bin/env bash
# Rebuilds the sweep and figure bins and compares their stdout with the
# committed bytes in tests/golden/sweeps/. A refactor that is
# deterministic but wrong passes CI's two-run self-diff; it cannot pass
# this. After an intentional behaviour change, regenerate a golden with
#   target/release/<bin> <args> > tests/golden/sweeps/<golden>
set -euo pipefail
cd "$(dirname "$0")/.."

# "<golden stem> <args...>": the bin is the stem up to its first dot and
# the golden is tests/golden/sweeps/<stem>.txt. Seeded sweeps run with
# seed 1, scale_sweep at CI's smoke point, and the figure/table bins take
# no arguments.
runs=(
    "load_sweep.seed1 1" "cluster_sweep.seed1 1" "elastic_sweep.seed1 1"
    "dedup_sweep.seed1 1" "trace_query.seed1 1" "chaos_sweep.seed1 1"
    "fig10.seed1 1" "fig12.seed1 1" "jit_ablation.seed1 --seed 1"
    "scale_sweep.hosts16 --hosts 16 --invocations 100000"
    fig6 fig7 fig9 fig11 table1 table2 motivation ablations install_time
)
stems=("${runs[@]%% *}")
bins=("${stems[@]%%.*}")
target="${CARGO_TARGET_DIR:-target}"
cargo build --release -p fireworks-bench "${bins[@]/#/--bin=}"

status=0
for run in "${runs[@]}"; do
    read -r stem args <<<"$run"
    bin="${stem%%.*}"
    golden="tests/golden/sweeps/$stem.txt"
    # shellcheck disable=SC2086  # args is a word list
    if "$target/release/$bin" $args | cmp - "$golden"; then
        echo "ok   $bin"
    else
        echo "FAIL $bin: stdout differs from $golden"
        status=1
    fi
done
exit $status
