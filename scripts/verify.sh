#!/usr/bin/env bash
# Tier-1 verification gate. The workspace is hermetic (zero external
# crates), so everything runs with --offline: any accidental dependency
# on the registry fails the gate instead of silently downloading.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy, all targets (offline, warnings are errors; clippy.toml holds the sync rules) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (offline, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== repo benchmark package unit tests (offline, release) =="
(cd benchmark && cargo test --offline --release -q)

# The runner comes from the release build above; calling it directly
# spares a cargo invocation (and its freshness check).
bin="${CARGO_TARGET_DIR:-target}/release"

echo "== figures: every table regenerated (the serve, store, replication, topo and storm sections judged before they print) and diffed against the golden FIGURES.txt =="
"$bin/figures" all > target/FIGURES.txt
diff -u FIGURES.txt target/FIGURES.txt || {
    echo "figures drifted from FIGURES.txt (a moved simulated number must be re-recorded: figures all > FIGURES.txt)" >&2
    exit 1
}

echo "verify: OK"
