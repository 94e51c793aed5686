#!/usr/bin/env bash
# One complete set of runs: every workload of ../BENCHMARK.json on
# RUNS consecutive seeds, one JSON line per run, for compare.sh.
#
#   benchmark/sweep.sh OUT.jsonl [RUNS=10] [FIRST_SEED=1] [TRACE=0]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${1:?usage: sweep.sh OUT.jsonl [RUNS] [FIRST_SEED] [TRACE]}"
runs="${2:-10}"
first="${3:-1}"
trace="${4:-0}"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/../BENCHMARK.json")"
: > "$out"
for workload in $workloads; do
    for ((seed = first; seed < first + runs; seed++)); do
        result="$("$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
        echo "{\"workload\": \"$workload\", \"seed\": $seed, \"trace\": $trace, \"result\": $result}" >> "$out"
    done
done
