#!/bin/sh
# Paired timing runs of one workload against a base commit — the
# measurement rule a timing claim rests on (ROADMAP "Measurement
# rules", bench/README.md): PAIRS pairs of runs, base and working tree
# alternated, with the side that goes first swapped every pair so a
# drifting box favours neither. Each run lasts BENCHMARK.json's
# run_seconds, as the benchmark's own runs do. Every run must report
# correct:true, failed:0: the first that does not stops the script,
# before any summary.
#
# For frames_per_s (higher is better) and cpu_ms_per_frame (lower is
# better) it prints each side's median and quartiles, the pairs the
# tree won (ties count for neither), and whether the claim rule holds:
# the tree wins at least 9 pairs in 10 and the medians differ by more
# than the base's interquartile range.
#
#   W=<workload>  required; a BENCHMARK.json workload name
#   PAIRS=10      pairs to run
#   BASE=<rev>    base commit (default: HEAD if the tree is dirty, else HEAD^)
#   SEED=1        workload seed (bench/golden.json holds full-run digests
#                 for seed 1 only; another seed's frames are checked only
#                 against psperf's reference run of the first frames)
#
# Run via `make bench-pairs W=explosion_voronoi`.
set -eu

[ -n "${W:-}" ] || { echo "usage: W=<workload> [PAIRS=10] [BASE=<rev>] [SEED=1] $0" >&2; exit 2; }

. "$(dirname "$0")/bench_base.sh"

pairs=${PAIRS:-10}
seed=${SEED:-1}
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
[ -n "$secs" ] || { echo "FAIL: no run_seconds in BENCHMARK.json"; exit 1; }

echo "$W: base $base_rev vs working tree, seed $seed, $pairs pairs of $secs s runs"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="base tree"; else order="tree base"; fi
    for side in $order; do
        if [ "$side" = base ]; then dir="$workdir/base"; else dir="$root"; fi
        : >"$workdir/stderr"
        line=$(run "$dir" "$W" "$seed" "$secs")
        if ! correct "$line"; then
            echo "FAIL: pair $i $side: not correct:true, failed:0: $line"
            cat "$workdir/stderr"
            exit 1
        fi
        printf '%s %s %s\n' "$i" "$(metric "$line" frames_per_s)" "$(metric "$line" cpu_ms_per_frame)" >>"$workdir/runs.$side"
    done
    printf 'pair %2d (%s first): frames/s %s -> %s\n' "$i" "${order%% *}" \
        "$(tail -n 1 "$workdir/runs.base" | awk '{ printf "%.1f", $2 }')" \
        "$(tail -n 1 "$workdir/runs.tree" | awk '{ printf "%.1f", $2 }')"
    i=$((i + 1))
done

# summary: $1 = column (2 frames_per_s, 3 cpu_ms_per_frame), $2 = name, $3 = 1 if higher is better
summary() {
    for side in base tree; do
        awk -v c="$1" '{ print $c }' "$workdir/runs.$side" | sort -g | awk -v side="$side" '
            { v[NR] = $1 }
            function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
            END { v[NR + 1] = v[NR]; printf "%s %.6g %.6g %.6g\n", side, q(0.25), q(0.5), q(0.75) }'
    done >"$workdir/q"
    paste -d " " "$workdir/runs.base" "$workdir/runs.tree" | awk -v c="$1" -v hi="$3" -v name="$2" -v n="$pairs" '
        FNR == NR { q1[$1] = $2; med[$1] = $3; q3[$1] = $4; next }
        { b = $c; t = $(c + 3); if ((hi && t > b) || (!hi && t < b)) wins++ }
        END {
            printf "%-17s base median %-10.6g [%.6g, %.6g]   tree median %-10.6g [%.6g, %.6g]   tree wins %d/%d",
                name, med["base"], q1["base"], q3["base"], med["tree"], q1["tree"], q3["tree"], wins, n
            d = med["tree"] - med["base"]; if (d < 0) d = -d
            better = hi ? med["tree"] > med["base"] : med["tree"] < med["base"]
            printf "   claim rule %s\n", (better && wins * 10 >= 9 * n && d > q3["base"] - q1["base"]) ? "met" : "not met"
        }' "$workdir/q" -
}
summary 2 frames_per_s 1
summary 3 cpu_ms_per_frame 0
