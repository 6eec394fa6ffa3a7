# Shared set-up of the benchmark scripts that compare a base commit with
# the working tree (bench_check.sh, bench_pairs.sh); source it, do not
# run it. It moves to the repository root, resolves the base — HEAD when
# the tree has uncommitted changes, HEAD^ when it is clean, BASE=<rev>
# overrides — and unpacks it with `git archive` into $workdir/base, so
# an interrupted run leaves nothing behind in .git. $workdir goes when
# the script exits. Each tree builds its own psperf into its own
# .bench_build/.

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

run() { # $1 = tree, $2 = workload, $3 = seed, $4 = seconds; prints the result line (psperf's last stdout line)
    bash "$1/bench/run.sh" --workload "$2" --seed "$3" --seconds "$4" --trace 0 2>>"$workdir/stderr" | tail -n 1
}

metric() { # $1 = result line, $2 = metric name
    printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

bound() { # $1 = end-to-end metric name; prints its BENCHMARK.json bound
    awk -v m="\"$1\"," '$1 == "\"name\":" && $2 == m { on = 1 }
        on && $1 == "\"bound\":" { print $2; exit }' BENCHMARK.json
}

correct() { # $1 = result line; true when it reports correct:true, failed:0
    case $1 in
    '{"correct":true,'*'"failed":0,'*) return 0 ;;
    *) return 1 ;;
    esac
}
