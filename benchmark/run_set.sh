#!/bin/sh
# Record one set of runs the way the acceptance driver makes them: every
# workload on ten seeds with tracing off, then once with tracing on.
#   benchmark/run_set.sh OUT.jsonl [FIRST_SEED]
# Run from the repository root. `compare A.jsonl B.jsonl` reads the result.
set -eu
out=$1
seed0=${2:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
run() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" --record "$out" >/dev/null
}
for workload in sim_mesh20_unsigned sim_torus1000_unsigned sim_mesh20_signed \
    campaign_grid_faults planner_ladder live_bus9_faults; do
    seed=$seed0
    while [ "$seed" -lt $((seed0 + 10)) ]; do
        run "$workload" "$seed" 0
        seed=$((seed + 1))
    done
    run "$workload" "$seed0" 1
done
