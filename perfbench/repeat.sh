#!/usr/bin/env bash
# Run one workload with seeds 1..N and summarize each metric's median,
# quartiles and spread (interquartile distance over median) across runs.
#
#   perfbench/repeat.sh <workload> [runs=10] [seconds=15] [trace=0]
#
# Run from the repository root. Result lines are kept in
# .bench_build/results/<workload>-trace<trace>.jsonl.
set -euo pipefail

workload=${1:?usage: perfbench/repeat.sh <workload> [runs] [seconds] [trace]}
runs=${2:-10}
seconds=${3:-15}
trace=${4:-0}

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-.bench_build}
bench=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)
out="$CARGO_TARGET_DIR/results/$workload-trace$trace.jsonl"
mkdir -p "$(dirname "$out")"
: > "$out"
for seed in $(seq 1 "$runs"); do
    "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        | tail -n 1 >> "$out"
done
"${bench[@]}" --summarize < "$out"
