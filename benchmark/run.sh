#!/usr/bin/env bash
# Builds the benchmark crate (offline, release) and runs it from the
# checkout root. Every flag is passed through; see benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr; stdout carries only the results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/s2m3-benchmark" "$@"
