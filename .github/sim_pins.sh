#!/bin/sh
# Bit-exact pins on the benchmark's simulated domain (ROADMAP item 1).
#
# `sim_qps` / `sim_qpj` on `offline_batch` and `trace_paper` are taken over a
# fixed batch prefix, so at a fixed seed they are exact: independent of the
# host, its load and the window length. Any refactor of the dispatch path,
# the kernels' charges or the cost model must leave them bit-identical.
# A PR that moves a value updates it here and says why in CHANGES.md.
set -eu
cd "$(dirname "$0")/.."

status=0
while read -r workload qps qpj; do
    line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 1 --trace 0)
    for pin in "sim_qps $qps" "sim_qpj $qpj"; do
        metric=${pin% *}
        expected=${pin#* }
        got=$(printf '%s\n' "$line" | sed -n "s/.*\"$metric\": {\"value\": \([^,]*\),.*/\1/p")
        if [ "$got" = "$expected" ]; then
            echo "ok   $workload $metric $got"
        else
            echo "FAIL $workload $metric got ${got:-<missing>} expected $expected"
            status=1
        fi
    done
done <<PINS
trace_paper 8212.27214290727 26.760352806330534
offline_batch 4471.169075374865 17.55536009407042
PINS
exit "$status"
