#!/bin/sh
# Paper-scale figure pins (ROADMAP item 11(a)-(b)): `repro all` at
# `PaperScale::default()` must write every CSV byte for byte as its golden
# under crates/bench/golden/, and no CSV without one. Every figure is a
# function of the simulated domain only, so the goldens hold on any host;
# Fig. 13/14 toggle partition, duplication and allocation, so they pin the
# layout planner too. A PR that moves a figure re-records the goldens and
# says why in CHANGES.md.
#
#   sh .github/repro_pins.sh        (about 30 s after the release build)
#
# `repro` writes results/ under its working directory, so it runs in a
# fresh temporary directory.
set -eu
cd "$(dirname "$0")/.."
repo=$(pwd)
cargo build --release --offline --quiet -p bench --bin repro
target=${CARGO_TARGET_DIR:-target}
case $target in
/*) ;;
*) target=$repo/$target ;;
esac
work=$(mktemp -d "${TMPDIR:-/tmp}/repro-pins.XXXXXX")
trap 'rm -rf "$work"' EXIT
(cd "$work" && "$target/release/repro" all >/dev/null 2>&1)

status=0
for golden in crates/bench/golden/*.csv; do
    name=$(basename "$golden")
    if cmp -s "$golden" "$work/results/$name"; then
        echo "ok   $name"
    else
        echo "FAIL $name"
        diff "$golden" "$work/results/$name" | head -n 20 || true
        status=1
    fi
done
for got in "$work"/results/*.csv; do
    name=$(basename "$got")
    if [ ! -f "crates/bench/golden/$name" ]; then
        echo "FAIL $name has no golden"
        status=1
    fi
done
exit "$status"
