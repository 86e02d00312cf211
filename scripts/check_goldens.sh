#!/usr/bin/env bash
# Rebuilds the sweep bins and compares their seed-1 stdout with the
# committed bytes in tests/golden/sweeps/. A refactor that is
# deterministic but wrong passes CI's two-run self-diff; it cannot pass
# this. After an intentional behaviour change, regenerate a golden with
#   target/release/<bin> 1 > tests/golden/sweeps/<bin>.seed1.txt
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(load_sweep cluster_sweep elastic_sweep dedup_sweep trace_query chaos_sweep fig10 fig12)
target="${CARGO_TARGET_DIR:-target}"
cargo build --release -p fireworks-bench "${bins[@]/#/--bin=}"

status=0
for bin in "${bins[@]}"; do
    golden="tests/golden/sweeps/$bin.seed1.txt"
    if "$target/release/$bin" 1 | cmp - "$golden"; then
        echo "ok   $bin"
    else
        echo "FAIL $bin: stdout differs from $golden"
        status=1
    fi
done
exit $status
