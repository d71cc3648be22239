#!/usr/bin/env bash
# Builds synthd and the benchmark from source, then runs the benchmark with
# the given arguments, from the root of the repository:
#
#   bash bench_e2e/run.sh --workload synth_cold --seed 1 --seconds 15 --trace 0
#
# Artifacts go to $CARGO_TARGET_DIR (default: target/); run outputs and
# trace files to target/bench-e2e/.
set -euo pipefail

bench_dir="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p hls-cluster --bin synthd >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/bench_e2e" --synthd "$CARGO_TARGET_DIR/release/synthd" "$@"
