#!/usr/bin/env bash
# Everything CI would run for the perf/ workspace: format, lints, unit tests,
# and a smoke run (one repetition per workload with full verification, then
# one traced run, which drives every probe). Under a minute once built.
# Wiring this into .github/workflows/ci.yml is left to the next change
# allowed to touch that file.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --smoke
cargo run --offline --release --quiet -- run --smoke --traced --workload serve-trace
