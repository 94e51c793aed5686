#!/usr/bin/env bash
# The benchmark's entry point (the `command` of ../BENCHMARK.json):
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# builds the benchmark and the compiler under test from source, measures
# one workload, checks every output, and prints one JSON object as the
# last line of standard output. `--smoke` measures two operations on an
# eighth-scale program; `--regen-expected` rewrites expected/mcad1.json.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cmo-benchmark" "$@"
