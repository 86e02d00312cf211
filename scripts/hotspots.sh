#!/usr/bin/env bash
# Where the benchmark's host CPU time goes, without perf: builds the
# benchmark with frame pointers into its own target directory, runs one
# workload under the SIGPROF sampler in scripts/sampler.c (loaded with
# LD_PRELOAD), and prints each function's self and inclusive share of the
# samples, resolved with nm; the sampler itself names samples in shared
# libraries as object:symbol (e.g. libc.so.6:malloc), or object:~symbol
# for a local function, after the nearest exported one below it.
#
#   scripts/hotspots.sh [--workload W] [--seed N] [--seconds S] [--callers PATTERN]
#
# The sampler takes one sample per 4 ms of CPU time, so a 6 s run gives
# ~1 500 samples and the 25 largest shares of each column are printed.
# Inlined functions count towards their caller. Samples, the sampler and
# the build stay in target/hotspots/.
#
# --callers PATTERN (an awk regular expression, e.g. obs::metrics) adds a
# third table: who calls the code PATTERN names. Each sample with a frame
# matching PATTERN is charged to the frame that called the outermost
# matching one, and the table gives each caller's share of all samples;
# its heading gives their total.
set -euo pipefail
cd "$(dirname "$0")/.."
workload=warm_io seed=42 seconds=8 callers=
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --callers) callers="$2" ;;
        *)
            echo "usage: $0 [--workload W] [--seed N] [--seconds S] [--callers PATTERN]" >&2
            exit 2
            ;;
    esac
    shift 2
done
out=target/hotspots
mkdir -p "$out"
RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$out" >&2
cc -O2 -shared -fPIC -o "$out/libsampler.so" scripts/sampler.c -ldl
bin="$out/release/fireworks-benchmark"
samples="$out/$workload.samples"
HOTSPOTS_OUT="$samples" LD_PRELOAD="$PWD/$out/libsampler.so" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null

# Text symbols by address (decimal, as the sampler writes offsets), then
# one line per sample: the first entry is where the sample landed (self),
# and every distinct function on the stack counts once (inclusive). An
# offset is looked up in the executable's symbols; an object:symbol entry
# is already named.
nm -C -n --radix=d --defined-only "$bin" | awk -v what="$workload" -v callers="$callers" '
    function lookup(a,    lo, hi, mid) {
        if (n == 0 || a < addr[0] || a > addr[n - 1] + 65536)
            return "[outside the executable]"
        lo = 0
        hi = n - 1
        while (lo < hi) {
            mid = int((lo + hi + 1) / 2)
            if (addr[mid] <= a) lo = mid; else hi = mid - 1
        }
        return name[lo]
    }
    FNR == NR {
        if ($2 ~ /^[tTwW]$/) {
            s = $0
            sub(/^[^ ]+ [^ ]+ /, "", s)
            sub(/::h[0-9a-f]+$/, "", s)
            addr[n] = $1 + 0
            name[n++] = s
        }
        next
    }
    {
        taken++
        split("", seen)
        # The frame above the outermost one matching `callers`.
        outer = 0
        for (i = 1; i <= NF; i++) {
            s = $i ~ /^-?[0-9]+$/ ? lookup($i + 0) : $i
            frame[i] = s
            if (i == 1) self[s]++
            if (!(s in seen)) {
                seen[s] = 1
                incl[s]++
            }
            if (callers != "" && s ~ callers) outer = i
        }
        if (outer) {
            by[outer < NF ? frame[outer + 1] : "[no caller]"]++
            matched++
        }
    }
    END {
        if (taken == 0) {
            print "no samples" > "/dev/stderr"
            exit 1
        }
        printf "%s: %d samples\n\n  self %%  function\n", what, taken
        sort = "sort -rn | head -n 25"
        for (s in self) printf "%6.1f  %s\n", 100 * self[s] / taken, s | sort
        close(sort)
        printf "\n  incl %%  function\n"
        for (s in incl) printf "%6.1f  %s\n", 100 * incl[s] / taken, s | sort
        close(sort)
        if (callers == "") exit
        printf "\n  callers of /%s/: %.1f %% of all samples\n", callers, 100 * matched / taken
        printf "  share %%  caller\n"
        for (s in by) printf "%6.1f  %s\n", 100 * by[s] / taken, s | sort
        close(sort)
    }
' - "$samples"
