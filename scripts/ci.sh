#!/usr/bin/env bash
# One-stop CI entry point: full verification (build, tests, smokes,
# goldens), the static quality gate, an ungated benchmark pass so a
# broken workload fails the pipeline without a wall-time gate flaking it,
# and the benchmark of record's own tests, so an API change that breaks
# `benchmark/` fails here rather than at the next benchmark run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== ci: verify ===="
./scripts/verify.sh

echo "==== ci: static quality gate ===="
./scripts/lint.sh

echo "==== ci: bench observatory (ungated) ===="
./target/release/smc bench --reps 1 --no-gate --baseline BENCH_kernel.json

echo "==== ci: benchmark of record (builds against the public APIs it calls) ===="
cargo test --release --locked --manifest-path benchmark/Cargo.toml

echo "ci: OK"
