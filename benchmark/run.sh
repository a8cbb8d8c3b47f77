#!/usr/bin/env bash
# Builds `smc` and the benchmark harness from source, then runs the
# harness. Run from the repository root:
#
#   bash benchmark/run.sh --workload witness --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh run --seed 1
#   bash benchmark/run.sh compare A.json B.json
#
# Builds go to $CARGO_TARGET_DIR (default: target).
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -f "$here/Cargo.toml" ]; then
    echo "benchmark/run.sh: run it from the root of the smc repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin smc >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/workloads" "$@"
