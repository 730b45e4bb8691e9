#!/usr/bin/env bash
# Build the `memes` server and the benchmark from source, then run the
# benchmark with every argument passed through, e.g.
#
#   bash perfbench/run.sh --workload serve-lookup --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line
# of stdout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin memes >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --memes "$CARGO_TARGET_DIR/release/memes" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
