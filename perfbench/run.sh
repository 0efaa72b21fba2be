#!/usr/bin/env bash
# Builds the benchmark harness and the real `simserved` from source, then
# runs the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# .bench_build). Without the workspace's crates beside it the build fails
# and the script exits nonzero without a result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cargo build --release --offline --quiet -p mpsoc-server --bin simserved
exec "$CARGO_TARGET_DIR/release/perfbench" --simserved "$CARGO_TARGET_DIR/release/simserved" "$@"
