#!/bin/sh
# Bit-exact pins on the benchmark's simulated domain (ROADMAP item 1).
#
# `sim_qps` / `sim_qpj` on `offline_batch` and `trace_paper` are taken over a
# fixed batch prefix, so at a fixed seed they are exact: independent of the
# host, its load and the window length. Three seeds per workload. Any refactor of the dispatch path,
# the kernels' charges or the cost model must leave them bit-identical.
# A PR that moves a value updates it here and says why in CHANGES.md.
set -eu
cd "$(dirname "$0")/.."

status=0
while read -r workload seed qps qpj; do
    line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
    for pin in "sim_qps $qps" "sim_qpj $qpj"; do
        metric=${pin% *}
        expected=${pin#* }
        got=$(printf '%s\n' "$line" | sed -n "s/.*\"$metric\": {\"value\": \([^,]*\),.*/\1/p")
        if [ "$got" = "$expected" ]; then
            echo "ok   $workload seed $seed $metric $got"
        else
            echo "FAIL $workload seed $seed $metric got ${got:-<missing>} expected $expected"
            status=1
        fi
    done
done <<PINS
trace_paper 1 8159.737010119531 26.604420583124398
trace_paper 7 8197.299787732522 26.719660665201605
trace_paper 42 8212.27214290727 26.760352806330534
offline_batch 1 4479.545793072438 17.588340959882732
offline_batch 7 4438.878409231703 17.428638863336122
offline_batch 42 4471.169075374865 17.55536009407042
PINS
exit "$status"
