#!/usr/bin/env bash
# One benchmark run against a live borndist-service deployment.
#
#   bash daemonbench/run.sh --workload sign-n4 --seed 1 --seconds 60 --trace 0
#
# Builds the daemon (from the repository's own workspace) and the
# harness (this directory's package) from source, then runs the harness.
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p borndist_service --bin borndist-service >&2
cargo build --release --offline --quiet --manifest-path daemonbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/daemonbench" \
    --service "$CARGO_TARGET_DIR/release/borndist-service" --out .bench_out "$@"
