#!/bin/sh
# Alternating parent/change pairs of bench_layers workloads — the
# procedure a PR that claims a gain has to follow (choosing-metrics §8):
# build both checkouts' bench_layers once, then per workload run <pairs>
# pairs with the order flipped each pair, and print per side the median
# and quartiles of every end-to-end metric, the ratio of the medians,
# and in how many pairs the change read better.
#
#   scripts/bench_pairs.sh <parent-worktree> <change-worktree> <workloads> \
#       [pairs=10] [seconds=15] [seed=1]
#
# <workloads> is one workload or a space-separated list (quoted), paired
# one after another, each table printed under its workload's name. Each
# checkout is built into its own bench_layers/target and writes its own
# bench_layers/out; every run's values are kept in
# <change-worktree>/bench_layers/out/pairs_<workload>_seed<seed>.tsv.
#
# The simulated end-to-end metrics (sim_*) are pure functions of the
# workload and the seed, so a hop-path change must leave them equal in
# every pair. When one differs, the script prints
# "SIM DIFFERS: <workload> <metric> pair <n>" after the tables and exits
# 1, so that a speed-up that moved the simulation is not read as a tie.
set -eu

if [ $# -lt 3 ]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workloads=$3
pairs=${4:-10}
seconds=${5:-15}
seed=${6:-1}
unset CARGO_TARGET_DIR
sim_diffs="$change/bench_layers/out/pairs_sim_differs_seed${seed}.txt"
mkdir -p "$(dirname "$sim_diffs")"
: > "$sim_diffs"

for dir in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$dir/bench_layers/Cargo.toml"
done

# one_run <side> <worktree> <pair>: appends "side pair metric value" rows.
one_run() {
    (cd "$2" && ./bench_layers/target/release/bench_layers --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 > /dev/null) || {
        echo "bench_pairs: $1 run of pair $3 failed (correctness check or crash)" >&2
        exit 1
    }
    awk -F '\t' -v side="$1" -v pair="$3" \
        '$1 == "end_to_end" { printf "%s\t%s\t%s\t%s\n", side, pair, $3, $5 }' \
        "$2/bench_layers/out/$workload.trace0.tsv" >> "$runs"
}

# pair_workload: the alternating pairs of $workload, then its table.
pair_workload() {
    runs="$change/bench_layers/out/pairs_${workload}_seed${seed}.tsv"
    mkdir -p "$(dirname "$runs")"
    : > "$runs"

    pair=1
    while [ "$pair" -le "$pairs" ]; do
        if [ $((pair % 2)) -eq 1 ]; then
            one_run parent "$parent" "$pair"
            one_run change "$change" "$pair"
        else
            one_run change "$change" "$pair"
            one_run parent "$parent" "$pair"
        fi
        echo "$workload: pair $pair/$pairs done" >&2
        pair=$((pair + 1))
    done

    echo "workload $workload: $pairs alternating pairs x $seconds s, seed $seed"
    echo "parent $parent"
    echo "change $change"
    # Directions come from the end_to_end block of BENCHMARK.json; values are
    # sorted per (metric, side) so the quantiles can be read off by index.
    sort -t "$(printf '\t')" -k3,3 -k1,1 -k4,4g "$runs" |
        awk -F '\t' -v manifest="$change/BENCHMARK.json" -v workload="$workload" \
            -v sim_diffs="$sim_diffs" '
        BEGIN {
            while ((getline line < manifest) > 0) {
                if (line ~ /"end_to_end"/) block = 1
                else if (line ~ /"per_layer"/) block = 0
                else if (block && split(line, f, "\"") >= 12) { better[f[4]] = f[12]; order[++metrics] = f[4] }
            }
            printf "%-20s %-7s %14s %14s %14s\n", "metric", "side", "q1", "median", "q3"
        }
        { n[$3, $1]++; sorted[$3, $1, n[$3, $1]] = $4; by_pair[$3, $1, $2] = $4 }
        function quantile(metric, side, p,    pos, lo, frac) {
            pos = 1 + (n[metric, side] - 1) * p; lo = int(pos); frac = pos - lo
            if (frac == 0) return sorted[metric, side, lo]
            return sorted[metric, side, lo] * (1 - frac) + sorted[metric, side, lo + 1] * frac
        }
        END {
            for (m = 1; m <= metrics; m++) {
                metric = order[m]
                if (!((metric, "parent") in n)) continue
                wins = ties = 0
                for (pair = 1; pair <= n[metric, "parent"]; pair++) {
                    p = by_pair[metric, "parent", pair]; c = by_pair[metric, "change", pair]
                    if (c == p) ties++
                    else if ((better[metric] == "higher") == (c > p)) wins++
                    if (c != p && metric ~ /^sim_/)
                        printf "SIM DIFFERS: %s %s pair %d\n", workload, metric, pair >> sim_diffs
                }
                printf "%-20s %-7s %14.6g %14.6g %14.6g\n", metric, "parent", \
                    quantile(metric, "parent", 0.25), quantile(metric, "parent", 0.5), quantile(metric, "parent", 0.75)
                pm = quantile(metric, "parent", 0.5)
                printf "%-20s %-7s %14.6g %14.6g %14.6g   x%.4f of parent (%s is better), change wins %d/%d, ties %d\n", \
                    metric, "change", quantile(metric, "change", 0.25), quantile(metric, "change", 0.5), \
                    quantile(metric, "change", 0.75), (pm != 0 ? quantile(metric, "change", 0.5) / pm : 1), \
                    better[metric], wins, n[metric, "parent"], ties
            }
        }'
    echo "every run: $runs"
}

for workload in $workloads; do
    pair_workload
    echo
done

if [ -s "$sim_diffs" ]; then
    cat "$sim_diffs"
    exit 1
fi
