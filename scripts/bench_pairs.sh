#!/bin/sh
# Paired timing runs of one workload, or of every workload, against a
# base commit — the measurement rule a timing claim rests on (ROADMAP
# "Measurement rules", bench/README.md): PAIRS pairs of runs, base and
# working tree alternated, with the side that goes first swapped every
# pair so a drifting box favours neither. Each run is psperf's contract
# command at --seconds <BENCHMARK.json's run_seconds>, as the
# benchmark's own runs are. That flag sets the number of timed
# repetitions, round(seconds / 5) — 3 at the contract's 15 — not a wall
# time: a fountain_tcp run takes about 7 s. Every run must report
# correct:true, failed:0: the first that does not stops the script,
# before any summary.
#
# For frames_per_s (higher is better) and cpu_ms_per_frame (lower is
# better) it prints each side's median and quartiles, the pairs the
# tree won (ties count for neither), and whether the claim rule holds:
# the tree wins at least 9 pairs in 10 and the medians differ by more
# than the base's interquartile range. For allocs_per_frame,
# alloc_mb_per_frame and peak_rss_mb (lower is better) it prints each
# side's median, the relative change and the metric's BENCHMARK.json
# bound, with no claim rule, so a trade of memory for time shows in the
# same command. The object count spreads by about 0.1 % between runs of
# one binary, so compare it by these medians, not by a single run.
# W=all runs the workloads BENCHMARK.json lists, one after the other,
# and ends with one summary line per workload carrying all five metrics.
#
#   W=<workload>  required; a BENCHMARK.json workload name, or all
#   PAIRS=10      pairs to run per workload
#   BASE=<rev>    base commit (default: HEAD if the tree is dirty, else HEAD^)
#   SEED=1        workload seed (bench/golden.json holds full-run digests
#                 for seed 1 only; another seed's frames are checked only
#                 against psperf's reference run of the first frames)
#
# Run via `make bench-pairs W=explosion_voronoi` or `make bench-pairs W=all`.
set -eu

[ -n "${W:-}" ] || { echo "usage: W=<workload>|all [PAIRS=10] [BASE=<rev>] [SEED=1] $0" >&2; exit 2; }

. "$(dirname "$0")/bench_base.sh"

pairs=${PAIRS:-10}
seed=${SEED:-1}
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
[ -n "$secs" ] || { echo "FAIL: no run_seconds in BENCHMARK.json"; exit 1; }

if [ "$W" = all ]; then
    workloads=$(awk '/"workloads"/ { on = 1 } on && /"name"/ { sub(/.*"name": *"/, ""); sub(/".*/, ""); print } on && /^ *\]/ { exit }' BENCHMARK.json)
    [ -n "$workloads" ] || { echo "FAIL: no workloads in BENCHMARK.json"; exit 1; }
else
    workloads=$W
fi

# pairs_of $1 = workload: runs the pairs into $workdir/$1.base and
# $workdir/$1.tree, one "pair frames_per_s cpu_ms_per_frame
# alloc_mb_per_frame peak_rss_mb allocs_per_frame" line each.
pairs_of() {
    echo "$1: base $base_rev vs working tree, seed $seed, $pairs pairs of --seconds $secs runs"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then order="base tree"; else order="tree base"; fi
        for side in $order; do
            if [ "$side" = base ]; then dir="$workdir/base"; else dir="$root"; fi
            : >"$workdir/stderr"
            line=$(run "$dir" "$1" "$seed" "$secs")
            if ! correct "$line"; then
                echo "FAIL: $1 pair $i $side: not correct:true, failed:0: $line"
                cat "$workdir/stderr"
                exit 1
            fi
            printf '%s %s %s %s %s %s\n' "$i" "$(metric "$line" frames_per_s)" "$(metric "$line" cpu_ms_per_frame)" \
                "$(metric "$line" alloc_mb_per_frame)" "$(metric "$line" peak_rss_mb)" \
                "$(metric "$line" allocs_per_frame)" >>"$workdir/$1.$side"
        done
        printf 'pair %2d (%s first): frames/s %s -> %s\n' "$i" "${order%% *}" \
            "$(tail -n 1 "$workdir/$1.base" | awk '{ printf "%.1f", $2 }')" \
            "$(tail -n 1 "$workdir/$1.tree" | awk '{ printf "%.1f", $2 }')"
        i=$((i + 1))
    done
}

# quartiles $1 = workload, $2 = side, $3 = column: prints "q1 median q3"
# of that column of the side's runs.
quartiles() {
    awk -v c="$3" '{ print $c }' "$workdir/$1.$2" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
        END { v[NR + 1] = v[NR]; printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

# verdict $1 = workload, $2 = column (2 frames_per_s, 3 cpu_ms_per_frame),
# $3 = 1 if higher is better: prints "base_q1 base_median base_q3
# tree_q1 tree_median tree_q3 wins met|not-met".
verdict() {
    for side in base tree; do
        echo "$side $(quartiles "$1" "$side" "$2")"
    done >"$workdir/q"
    paste -d " " "$workdir/$1.base" "$workdir/$1.tree" | awk -v c="$2" -v hi="$3" -v n="$pairs" '
        FNR == NR { q1[$1] = $2; med[$1] = $3; q3[$1] = $4; next }
        { b = $c; t = $(c + 6); if ((hi && t > b) || (!hi && t < b)) wins++ }
        END {
            d = med["tree"] - med["base"]; if (d < 0) d = -d
            better = hi ? med["tree"] > med["base"] : med["tree"] < med["base"]
            printf "%.6g %.6g %.6g %.6g %.6g %.6g %d %s\n", q1["base"], med["base"], q3["base"],
                q1["tree"], med["tree"], q3["tree"], wins + 0,
                (better && wins * 10 >= 9 * n && d > q3["base"] - q1["base"]) ? "met" : "not-met"
        }' "$workdir/q" -
}

# drift $1 = workload, $2 = column (4 alloc_mb_per_frame, 5 peak_rss_mb,
# 6 allocs_per_frame),
# $3 = metric name: prints "base_median tree_median change_pct bound_pct".
drift() {
    echo "$(quartiles "$1" base "$2") $(quartiles "$1" tree "$2")" | awk -v k="$(bound "$3")" '{
        printf "%.6g %.6g %+.1f %g\n", $2, $5, ($2 > 0) ? 100 * ($5 - $2) / $2 : 0, 100 * k }'
}

# summary $1 = workload: one line per metric.
summary() {
    for m in "2 frames_per_s 1" "3 cpu_ms_per_frame 0"; do
        set -- "$1" $m
        verdict "$1" "$2" "$4" | awk -v name="$3" -v n="$pairs" '{
            printf "%-18s base median %-10.6g [%.6g, %.6g]   tree median %-10.6g [%.6g, %.6g]   tree wins %d/%d   claim rule %s\n",
                name, $2, $1, $3, $5, $4, $6, $7, n, ($8 == "met") ? "met" : "not met" }'
    done
    for m in "6 allocs_per_frame" "4 alloc_mb_per_frame" "5 peak_rss_mb"; do
        set -- "$1" $m
        drift "$1" "$2" "$3" | awk -v name="$3" '{
            printf "%-18s base median %-10.6g tree median %-10.6g change %+.1f %% (bound +%g %%)\n", name, $1, $2, $3, $4 }'
    done
}

for w in $workloads; do
    pairs_of "$w"
    summary "$w"
done

if [ "$W" = all ]; then
    echo
    echo "summary, seed $seed, $pairs pairs each: median [q1, q3] base -> tree, tree wins, claim rule;"
    echo "allocs/frame, MB/frame and peak RSS: median base -> tree, change (BENCHMARK.json bound)"
    for w in $workloads; do
        fps=$(verdict "$w" 2 1)
        cpu=$(verdict "$w" 3 0)
        objs=$(drift "$w" 6 allocs_per_frame)
        mb=$(drift "$w" 4 alloc_mb_per_frame)
        rss=$(drift "$w" 5 peak_rss_mb)
        printf '%s %s %s %s %s\n' "$fps" "$cpu" "$objs" "$mb" "$rss" | awk -v w="$w" -v n="$pairs" '{
            printf "%-18s frames/s %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g] %d/%d %s   cpu_ms/frame %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g] %d/%d %s   allocs/frame %.6g -> %.6g %+.1f %% (+%g %%)   MB/frame %.4g -> %.4g %+.1f %% (+%g %%)   peak_rss_mb %.4g -> %.4g %+.1f %% (+%g %%)\n",
                w, $2, $1, $3, $5, $4, $6, $7, n, v($8), $10, $9, $11, $13, $12, $14, $15, n, v($16),
                $17, $18, $19, $20, $21, $22, $23, $24, $25, $26, $27, $28 }
            function v(s) { return s == "met" ? "met" : "not met" }'
    done
fi
