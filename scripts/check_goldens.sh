#!/usr/bin/env bash
# Rebuilds the sweep and figure bins and compares their stdout with the
# committed bytes in tests/golden/sweeps/. A refactor that is
# deterministic but wrong passes CI's two-run self-diff; it cannot pass
# this. After an intentional behaviour change, regenerate a golden with
#   target/release/<bin> <args> > tests/golden/sweeps/<golden>
set -euo pipefail
cd "$(dirname "$0")/.."

# "<bin> <args...>": seeded sweeps run with seed 1 (<bin>.seed1.txt),
# the figure/table bins take no arguments (<bin>.txt).
runs=(
    "load_sweep 1" "cluster_sweep 1" "elastic_sweep 1" "dedup_sweep 1"
    "trace_query 1" "chaos_sweep 1" "fig10 1" "fig12 1"
    "jit_ablation --seed 1"
    fig6 fig7 fig9 fig11 table1 table2 motivation ablations install_time
)
bins=("${runs[@]%% *}")
target="${CARGO_TARGET_DIR:-target}"
cargo build --release -p fireworks-bench "${bins[@]/#/--bin=}"

status=0
for run in "${runs[@]}"; do
    read -r bin args <<<"$run"
    golden="tests/golden/sweeps/$bin${args:+.seed1}.txt"
    # shellcheck disable=SC2086  # args is a word list
    if "$target/release/$bin" $args | cmp - "$golden"; then
        echo "ok   $bin"
    else
        echo "FAIL $bin: stdout differs from $golden"
        status=1
    fi
done
exit $status
