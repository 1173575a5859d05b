#!/bin/sh
# Parent-vs-change runs of the end-to-end benchmark: the protocol behind a
# perf PR's before/after table in CHANGES.md.
#
#   sh .github/compare.sh <parent-rev> [seeds]       (default seeds: 1 .. 10)
#
# Exports <parent-rev> and this working tree (tracked and untracked,
# unignored files) into two fresh directories with different names under
# $TMPDIR and builds the benchmark in each: PR 17 saw the checkout
# directory's name alone move a DC number by 35%, so neither side reuses
# this checkout's build. Then it runs the two sides alternately, one pair
# per seed, the side that goes first flipping each pair, appending to
# parent.jsonl / change.jsonl with --out. It prints the change's --check
# table over all pairs (medians, quartile spreads and verdicts against the
# bounds in BENCHMARK.json) and, per workload, the pairs the change won on
# host_qps. Extra benchmark flags go in BENCH_ARGS, e.g.
# BENCH_ARGS="--workload offline_batch". Exits as --check does: non-zero
# when a row regressed.
set -eu
if [ $# -lt 1 ]; then
    echo "usage: $0 <parent-rev> [seeds]" >&2
    exit 2
fi
rev=$1
shift
seeds=${*:-1 2 3 4 5 6 7 8 9 10}
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/drim-compare.XXXXXX")
parent=$work/parent-$(git -C "$repo" rev-parse --short "$rev")
change=$work/change-worktree
mkdir -p "$parent" "$change"
git -C "$repo" archive "$rev" | tar -x -C "$parent"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
    tar -c --null --ignore-failed-read -T - -f -) | tar -x -C "$change"

for side in "$parent" "$change"; do
    echo "building $side" >&2
    # from inside the tree, so cargo picks up its .cargo/config.toml
    (cd "$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# run <side name> <tree> <seed>
run() {
    echo "seed $3: $1" >&2
    # shellcheck disable=SC2086 # BENCH_ARGS is a list of flags
    (cd "$2" && ./benchmark/target/release/drim-benchmark --seed "$3" ${BENCH_ARGS:-} \
        --out "$work/$1.jsonl" >/dev/null 2>>"$work/$1.log")
}
flip=0
for seed in $seeds; do
    if [ "$flip" = 0 ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
    flip=$((1 - flip))
done

status=0
"$change/benchmark/target/release/drim-benchmark" --check "$work/parent.jsonl" "$work/change.jsonl" ||
    status=$?
qps() {
    sed -n 's/.*"workload": "\([^"]*\)".*"host_qps": {"value": \([^,}]*\).*/\1 \2/p' "$1"
}
qps "$work/parent.jsonl" >"$work/parent.qps"
qps "$work/change.jsonl" >"$work/change.qps"
paste -d' ' "$work/parent.qps" "$work/change.qps" | awk '
    { n[$1]++; if ($4 > $2) won[$1]++ }
    END { for (w in n) printf "%-14s host_qps better in %d of %d pairs\n", w, won[w] + 0, n[w] }'
rm -rf "$parent/benchmark/target" "$change/benchmark/target"
echo "runs and logs: $work" >&2
exit "$status"
