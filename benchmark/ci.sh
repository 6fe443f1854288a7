#!/usr/bin/env bash
# Runs the benchmark package's unit tests, then its check mode: every
# workload's correctness checks on small inputs, metric names against
# BENCHMARK.json, and [profile.release] parity with the root manifest.
# Exits nonzero on any failure. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check
