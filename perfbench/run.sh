#!/usr/bin/env bash
# Builds the mantra CLI and the benchmark from source, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-week --seed 1998 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line on stdout is the result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from the repository root (no Cargo.toml and crates/ here)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mantra-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --mantra "$CARGO_TARGET_DIR/release/mantra" \
    --out "$CARGO_TARGET_DIR/perfbench" \
    --rustc "$(rustc --version)"
