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

# The three runners below come from the release build above; calling
# them directly spares a cargo invocation (and its freshness check) per
# step.
bin="${CARGO_TARGET_DIR:-target}/release"

echo "== fault-storm smoke: all five campaigns (rack, tiering, delegated, node-replicated, store; fixed seeds, replay-verified) =="
"$bin/flac-faultstorm" --seeds 2 --steps 60 --verify

echo "== figures: every table regenerated and diffed against the golden FIGURES.txt =="
"$bin/figures" all > target/FIGURES.txt
diff -u FIGURES.txt target/FIGURES.txt || {
    echo "figures drifted from FIGURES.txt (a moved simulated number must be re-recorded: figures all > FIGURES.txt)" >&2
    exit 1
}

echo "== benchmark suites: each committed BENCH_<suite>.json re-derived from the tree (--check) =="
for s in serve store sync topo; do
    "$bin/flac-bench" "$s" --check
done

echo "verify: OK"
