#!/usr/bin/env bash
# Builds the shipped `sdp-serve` binary and the benchmark driver from
# source, then runs the driver against it.  Run from the repository
# root:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "perfbench: run from a checkout of the repository (no crates/serve here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sdp-serve --bin sdp-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/sdp-serve" "$@"
