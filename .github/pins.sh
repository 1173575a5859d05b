#!/bin/sh
# Every simulated-domain golden, checked and re-recorded by one command:
#
#   sh .github/pins.sh        (about 1 min after the release builds)
#
# It rewrites crates/bench/golden/ from this tree: one CSV per `repro all`
# figure at `PaperScale::default()`, numbers in Rust's shortest round-trip
# form, and sim_pins.csv, the benchmark's `sim_qps` / `sim_qpj` on
# `trace_paper` and `offline_batch` and `offline_batch`'s recall@10 at seeds
# 1, 7 and 42. All are exact per seed on any host and thread count. Then it
# fails if `git status` shows anything there: a moved pin is a modified
# file, a figure no longer written a deleted one, a new one an untracked
# one. To re-record, run it, review `git diff`, and commit the goldens.
set -eu
cd "$(dirname "$0")/.."
golden=crates/bench/golden
cargo build --release --offline --quiet -p bench --bin repro
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
target=${CARGO_TARGET_DIR:-target}
case $target in /*) ;; *) target=$(pwd)/$target ;; esac
# `repro` writes results/ under its working directory.
work=$(mktemp -d "${TMPDIR:-/tmp}/pins.XXXXXX")
trap 'rm -rf "$work"' EXIT
rm -f "$golden"/*.csv
(cd "$work" && "$target/release/repro" all >/dev/null)
cp "$work"/results/default/*.csv "$golden"/

# pin <workload> <seed> <trace> <metric>...: one benchmark run, one row per metric
pin() {
    workload=$1 seed=$2 trace=$3
    shift 3
    line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace "$trace" 2>/dev/null)
    for metric; do
        echo "$workload,$seed,$metric,$(printf '%s\n' "$line" |
            sed -n "s/.*\"$metric\": {\"value\": \([^,]*\),.*/\1/p")"
    done
}
{
    echo workload,seed,metric,value
    for workload in trace_paper offline_batch; do
        for seed in 1 7 42; do pin "$workload" "$seed" 0 sim_qps sim_qpj; done
    done
    for seed in 1 7 42; do pin offline_batch "$seed" 1 quality.recall_at_10; done
} >"$golden/sim_pins.csv"

if [ -n "$(git status --porcelain -- "$golden")" ]; then
    git status --short -- "$golden"
    git --no-pager diff -- "$golden"
    echo "FAIL: $golden differs from the commit"
    exit 1
fi
echo "ok   every golden in $golden"
