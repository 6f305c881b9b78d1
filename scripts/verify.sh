#!/usr/bin/env bash
# Tier-1 verification gate. The workspace is hermetic (zero external
# crates), so everything runs with --offline: any accidental dependency
# on the registry fails the gate instead of silently downloading.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== sync deny-list lint (no raw locks over shared state) =="
scripts/lint_sync.sh

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy (offline, warnings are errors) =="
cargo clippy --workspace --offline -- -D warnings

echo "== rustdoc (offline, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== bench targets compile (offline, feature-gated) =="
cargo build --offline -p bench --benches --features criterion

echo "== repo benchmark package unit tests (offline, release) =="
(cd benchmark && cargo test --offline --release -q)

echo "== fault-storm smoke: all five campaigns (rack, tiering, delegated, node-replicated, store; fixed seeds, replay-verified) =="
cargo run --release --offline -p bench --bin flac-faultstorm -- --seeds 2 --steps 60 --verify

echo "== tiering smoke: A7 ablation =="
cargo run --release --offline -p bench --bin figures -- tiering

echo "== sync smoke: A1 ablation =="
cargo run --release --offline -p bench --bin figures -- sync

echo "== benchmark suites: --quick smoke gated on the written file, then the committed report's --check =="
for s in cache serve sync topo store; do
    echo "-- flac-bench $s --"
    cargo run --release --offline -q -p bench --bin flac-bench -- \
        "$s" --quick --out "target/BENCH_$s.quick.json" --gate
    cargo run --release --offline -q -p bench --bin flac-bench -- "$s" --check "BENCH_$s.json"
done

echo "verify: OK"
