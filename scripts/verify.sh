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

echo "== cache-scale smoke (~1 s wall-clock gate, JSON shape + cost parity) =="
cargo run --release --offline -p bench --bin cache-scale -- \
    --quick --out target/BENCH_cache.quick.json --gate

echo "== committed BENCH_cache.json honors the single-thread acceptance target =="
cargo run --release --offline -p bench --bin cache-scale -- --check BENCH_cache.json

echo "== serve-scale smoke (open-loop loadgen gate, JSON shape + invariants) =="
cargo run --release --offline -p bench --bin flac-loadgen -- \
    --quick --out target/BENCH_serve.quick.json --gate

echo "== committed BENCH_serve.json honors the serving acceptance targets =="
cargo run --release --offline -p bench --bin flac-loadgen -- --check BENCH_serve.json

echo "== fault-storm smoke: all five campaigns (rack, tiering, delegated, node-replicated, store; fixed seeds, replay-verified) =="
cargo run --release --offline -p bench --bin flac-faultstorm -- --seeds 2 --steps 60 --verify

echo "== tiering smoke: A7 ablation =="
cargo run --release --offline -p bench --bin figures -- tiering

echo "== sync smoke: A1 ablation =="
cargo run --release --offline -p bench --bin figures -- sync

echo "== sync-scale smoke (flat-combining gate, JSON shape + invariants) =="
cargo run --release --offline -p bench --bin flac-sync-scale -- \
    --quick --out target/BENCH_sync.quick.json --gate

echo "== committed BENCH_sync.json honors the node-replication acceptance targets =="
cargo run --release --offline -p bench --bin flac-sync-scale -- --check BENCH_sync.json

echo "== topo-scale smoke (region probe + huge-page tiering gate, JSON shape + invariants) =="
cargo run --release --offline -p bench --bin flac-topo-scale -- \
    --quick --out target/BENCH_topo.quick.json --gate

echo "== committed BENCH_topo.json honors the ranged-shootdown acceptance targets =="
cargo run --release --offline -p bench --bin flac-topo-scale -- --check BENCH_topo.json

echo "== store-scale smoke (~1 s shard sweep + overlap gate, JSON shape + invariants) =="
cargo run --release --offline -p bench --bin flac-store-scale -- \
    --quick --out target/BENCH_store.quick.json --gate

echo "== committed BENCH_store.json honors the shard-scaling acceptance targets =="
cargo run --release --offline -p bench --bin flac-store-scale -- --check BENCH_store.json

echo "verify: OK"
