#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload hot|cold|ensemble_k2|train \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build) with the repository's .cargo/config.toml flags;
# cold-start artifacts go to a per-run directory under it and are removed
# at exit. The last line of stdout is the JSON result.
set -euo pipefail
target_dir="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml --target-dir "$target_dir" >&2
exec "$target_dir/release/perfbench" --scratch "$target_dir/perfbench-scratch-$$" "$@"
