#!/usr/bin/env bash
# Builds the release `codesign` binary and the benchmark from source, then
# runs one benchmark run. Takes the benchmark's own flags:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run records go to .bench_runs/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p codesign-cli --bin codesign >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --codesign-bin "$CARGO_TARGET_DIR/release/codesign" "$@"
