#!/bin/sh
# Benchmark check against the parent commit: run every BENCHMARK.json
# workload once, at seed 1, on a temporary checkout of the base commit
# and on this tree, and hold the metrics that repeat exactly:
#
#   - every run must report correct:true, failed:0 (golden frame digests);
#   - virtual_s and imbalance_mean must be equal, digit for digit;
#   - allocs_per_frame and alloc_mb_per_frame may not rise by more than
#     their BENCHMARK.json bounds (2 % and 8 %): the object count misses
#     one large allocation that the bytes show. The bytes spread up to
#     8 % between runs of one tree on explosion_voronoi (a pooled wire
#     buffer lost to a GC now and then), so rerun a failure on them
#     before calling it a regression.
#
# The timing metrics (frames_per_s, cpu_ms_per_frame, setup_s) and
# peak_rss_mb are printed side by side as advisory: one run on a
# drifting box proves nothing about time — claim a timing gain from
# alternated pairs (bench/README.md).
#
# The base is HEAD when the tree has uncommitted changes (check before
# committing) and HEAD^ when it is clean (check the commit just made);
# BASE=<rev> overrides (scripts/bench_base.sh unpacks it). Run via
# `make bench-check`.
set -eu

. "$(dirname "$0")/bench_base.sh"

workloads=$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); print $2 }' BENCHMARK.json)
[ -n "$workloads" ] || { echo "FAIL: no workloads found in BENCHMARK.json"; exit 1; }

status=0
flag() { echo "FAIL: $1"; status=1; }

echo "base $base_rev vs working tree, seed 1, one run per workload"
for w in $workloads; do
    echo "== $w"
    : >"$workdir/stderr"
    base=$(run "$workdir/base" "$w" 1 5)
    change=$(run "$root" "$w" 1 5)
    ok=1
    for side in "$base" "$change"; do
        correct "$side" || { ok=0; flag "$w: not correct:true, failed:0: $side"; }
    done
    [ "$ok" -eq 1 ] || { cat "$workdir/stderr"; continue; }
    for m in virtual_s imbalance_mean; do
        b=$(metric "$base" $m) c=$(metric "$change" $m)
        [ -n "$b" ] && [ "$b" = "$c" ] || flag "$w: $m moved: $b -> $c"
    done
    for m in allocs_per_frame alloc_mb_per_frame; do
        b=$(metric "$base" $m) c=$(metric "$change" $m) k=$(bound $m)
        awk -v b="$b" -v c="$c" -v k="$k" 'BEGIN { exit (c <= b * (1 + k)) ? 0 : 1 }' ||
            flag "$w: $m rose more than its bound $k: $b -> $c"
        printf '   %-20s %14.6g -> %-14.6g (held: may not rise > %s)\n' $m "$b" "$c" "$k"
    done
    for m in frames_per_s cpu_ms_per_frame setup_s peak_rss_mb; do
        printf '   %-20s %14.6g -> %-14.6g (advisory)\n' $m "$(metric "$base" $m)" "$(metric "$change" $m)"
    done
done

[ "$status" -eq 0 ] && echo "PASS: exact metrics held on every workload"
exit "$status"
