#!/usr/bin/env bash
# Build the benchmark and the e2clab CLI from this checkout, then run one
# workload:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build); the last
# line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The root package's CLI, spawned as `e2clab worker` by the farmed workload.
cargo build --release --offline --quiet --bin e2clab >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
