#!/usr/bin/env bash
# The busprobe benchmark: build release, then run.
#
#   benchmark/run.sh [--seed N] [--workload NAME]   every metric of every (or one) workload
#   benchmark/run.sh --aa                           end-to-end runs twice, compared against the bounds
#   benchmark/run.sh --manifest                     print BENCHMARK.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                   one run; last stdout line is the result JSON
#
# Run from the root of the checkout (the driver does; so does this
# script when called by path from elsewhere).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: stdout carries results only.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/busprobe-benchmark" "$@"
