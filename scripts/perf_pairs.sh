#!/usr/bin/env bash
# Alternating perfbench pairs of a base commit against the working tree.
# Builds perfbench from <base-ref> (a `git archive` checkout under the
# ignored `.bench_build/`, so no worktree is registered) and from the
# working tree, then runs <pairs> pairs of <seconds>-second runs of
# <workload>: the base first in odd pairs, the change first in even ones,
# both on the seed $PERF_PAIRS_SEED (default 1). Prints every run, then for
# each end-to-end metric the base and change medians, the base's IQR, how
# many pairs the change won, and whether the median gain exceeds that IQR.
# A run that is not `correct` or fails an operation is reported.
# Usage: perf_pairs.sh <base-ref> <workload> <pairs> [seconds]   (seconds: 20)
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ $# -lt 3 ]]; then
    sed -n '2,11p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base_ref=$1 workload=$2 pairs=$3 seconds=${4:-20}
seed=${PERF_PAIRS_SEED:-1}
sha=$(git rev-parse --verify "$base_ref^{commit}")
base_dir=.bench_build/base-${sha:0:12}
if [[ ! -f $base_dir/perfbench/Cargo.toml ]]; then
    rm -rf "$base_dir"
    mkdir -p "$base_dir"
    git archive "$sha" | tar -x -C "$base_dir"
fi
for tree in "$base_dir" .; do
    cargo build --release --offline --quiet --manifest-path "$tree/perfbench/Cargo.toml"
done
declare -A bin=([base]=$base_dir/perfbench/target/release/perfbench
    [change]=perfbench/target/release/perfbench)

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
bad=0
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do
        line=$("${bin[$side]}" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 | tail -n 1)
        if [[ $line != *'"correct": true'* || $line != *'"failed": 0,'* ]]; then
            echo "pair $i $side: not correct or failed operations: $line" >&2
            bad=$((bad + 1))
        fi
        grep -o '"[a-z_0-9.]*": {"value": [^,}]*' <<<"$line" |
            sed -E "s/^\"([^\"]+)\": \\{\"value\": (.*)$/$i $side \\1 \\2/" >>"$runs"
    done
done

# Per metric: whether lower is better, from BENCHMARK.json.
better() {
    awk -v m="$1" '
        /"name":/ { gsub(/[",]/, "", $2); name = $2 }
        /"better":/ && name == m { gsub(/[",]/, "", $2); print $2; exit }
    ' BENCHMARK.json
}

# Median and quartiles (linear interpolation) of the numbers on stdin.
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1
            lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

echo "workload $workload, seed $seed, $pairs pairs of ${seconds}s: base ${sha:0:12} vs working tree"
awk '{ printf "pair %2d %-6s %-14s %s\n", $1, $2, $3, $4 }' "$runs"
printf '%-14s %12s %12s %9s %12s %6s %s\n' metric base change change base_iqr wins 'gain>iqr'
for metric in $(awk '{ print $3 }' "$runs" | sort -u); do
    dir=$(better "$metric")
    read -r b1 bm b3 < <(awk -v m="$metric" '$3 == m && $2 == "base" { print $4 }' "$runs" | quartiles)
    read -r _ cm _ < <(awk -v m="$metric" '$3 == m && $2 == "change" { print $4 }' "$runs" | quartiles)
    wins=$(awk -v m="$metric" -v dir="$dir" '
        $3 == m { x[$1, $2] = $4; seen[$1] = 1 }
        END {
            for (p in seen) {
                if (dir == "higher" ? x[p, "change"] > x[p, "base"] : x[p, "change"] < x[p, "base"]) n++
            }
            print n + 0
        }' "$runs")
    awk -v m="$metric" -v b="$bm" -v c="$cm" -v b1="$b1" -v b3="$b3" -v w="$wins" \
        -v n="$pairs" -v dir="$dir" 'BEGIN {
            gain = dir == "higher" ? c - b : b - c
            beats = (gain > b3 - b1) ? "yes" : "no"
            pct = (b == 0) ? 0 : 100 * (c - b) / b
            printf "%-14s %12.6g %12.6g %+8.1f%% %12.6g %3d/%-2d %s\n",
                m, b, c, pct, b3 - b1, w, n, beats
        }'
done
if ((bad)); then
    echo "$bad run(s) were not correct or failed operations" >&2
    exit 1
fi
