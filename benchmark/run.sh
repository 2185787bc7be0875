#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark (and, through its path
# dependencies, the crates it measures) in release mode without touching
# the network, then runs it with the given arguments.
#
#   benchmark/run.sh --workload decode_closed_b16 --seed 1 --seconds 20 --trace 0
#   benchmark/run.sh all --trace 1          # every workload, then a traced run of each
#   benchmark/run.sh --smoke                # everything, briefly; numbers not comparable
#
# Run it from the root of the repository: trace files go to benchmark/out/.
set -euo pipefail
here=$(dirname "$0")
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/opal-benchmark" "$@"
