#!/bin/sh
# Benchmark check against the parent commit: run every BENCHMARK.json
# workload once, at seed 1, on a temporary checkout of the base commit
# and on this tree, and hold the metrics that repeat exactly:
#
#   - every run must report correct:true, failed:0 (golden frame digests);
#   - virtual_s and imbalance_mean must be equal, digit for digit;
#   - allocs_per_frame may not rise by more than 2 %.
#
# The timing metrics (frames_per_s, cpu_ms_per_frame, setup_s) and
# alloc_mb_per_frame / peak_rss_mb are printed side by side as advisory:
# one run on a drifting box proves nothing about time — claim a timing
# gain from alternated pairs (bench/README.md).
#
# The base is HEAD when the tree has uncommitted changes (check before
# committing) and HEAD^ when it is clean (check the commit just made);
# BASE=<rev> overrides. The base tree is unpacked with `git archive`, so
# an interrupted run leaves nothing behind in .git. Each tree builds its
# own psperf into its own .bench_build/. Run via `make bench-check`.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

if [ -z "${BASE:-}" ]; then
    if [ -n "$(git status --porcelain)" ]; then BASE=HEAD; else BASE='HEAD^'; fi
fi
base_rev=$(git rev-parse --verify --short "$BASE^{commit}")

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM
mkdir "$workdir/base"
git archive "$base_rev" | tar -x -C "$workdir/base"

workloads=$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); print $2 }' BENCHMARK.json)
[ -n "$workloads" ] || { echo "FAIL: no workloads found in BENCHMARK.json"; exit 1; }

run() { # $1 = tree, $2 = workload; prints the result line (psperf's last stdout line)
    bash "$1/bench/run.sh" --workload "$2" --seed 1 --seconds 5 --trace 0 2>>"$workdir/stderr" | tail -n 1
}

metric() { # $1 = result line, $2 = metric name
    printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

status=0
flag() { echo "FAIL: $1"; status=1; }

echo "base $base_rev vs working tree, seed 1, one run per workload"
for w in $workloads; do
    echo "== $w"
    : >"$workdir/stderr"
    base=$(run "$workdir/base" "$w")
    change=$(run "$root" "$w")
    ok=1
    for side in "$base" "$change"; do
        case $side in
        '{"correct":true,'*'"failed":0,'*) ;;
        *) ok=0; flag "$w: not correct:true, failed:0: $side" ;;
        esac
    done
    [ "$ok" -eq 1 ] || { cat "$workdir/stderr"; continue; }
    for m in virtual_s imbalance_mean; do
        b=$(metric "$base" $m) c=$(metric "$change" $m)
        [ -n "$b" ] && [ "$b" = "$c" ] || flag "$w: $m moved: $b -> $c"
    done
    b=$(metric "$base" allocs_per_frame) c=$(metric "$change" allocs_per_frame)
    awk -v b="$b" -v c="$c" 'BEGIN { exit (c <= b * 1.02) ? 0 : 1 }' ||
        flag "$w: allocs_per_frame rose more than 2 %: $b -> $c"
    printf '   %-20s %14.6g -> %-14.6g (held: may not rise > 2 %%)\n' allocs_per_frame "$b" "$c"
    for m in alloc_mb_per_frame frames_per_s cpu_ms_per_frame setup_s peak_rss_mb; do
        printf '   %-20s %14.6g -> %-14.6g (advisory)\n' $m "$(metric "$base" $m)" "$(metric "$change" $m)"
    done
done

[ "$status" -eq 0 ] && echo "PASS: exact metrics held on every workload"
exit "$status"
