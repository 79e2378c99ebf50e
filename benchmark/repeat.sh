#!/usr/bin/env bash
# A/A check: runs the whole suite N times back to back on one seed, one
# process per workload (so peak_rss_mb is each workload's own), and
# compares each run with the one before it: end-to-end metrics by
# BENCHMARK.json's bounds, fail_ratio (may not rise) and the simulated
# figures (must repeat exactly; the fleet's traced run carries hw.sim.*).
#   benchmark/repeat.sh N [seed]
set -euo pipefail
runs="${1:?usage: repeat.sh N [seed]}"
seed="${2:-1}"
here="$(cd "$(dirname "$0")" && pwd)"
bench=(cargo run --release --quiet --manifest-path "$here/Cargo.toml" --)
mkdir -p "$here/out"
status=0
for ((i = 1; i <= runs; i++)); do
    for run in circuit_setb:0 serve_mix_seta:0 serve_add_seta:0 model_fleet_setb:0 model_fleet_setb:1; do
        workload="${run%:*}" trace="${run#*:}"
        "${bench[@]}" run --workload "$workload" --seed "$seed" --trace "$trace" \
            --out "$here/out/run-$i-$workload-$trace.json"
        if ((i > 1)); then
            echo "== $workload (trace $trace): run $((i - 1)) vs run $i"
            "${bench[@]}" compare "$here/out/run-$((i - 1))-$workload-$trace.json" \
                "$here/out/run-$i-$workload-$trace.json" || status=1
        fi
    done
done
exit "$status"
