#!/usr/bin/env bash
# Tier-1 verification gate. The workspace is hermetic (zero external
# crates), so everything runs with --offline: any accidental dependency
# on the registry fails the gate instead of silently downloading.
#
# Every step ends with a `-- <step>: N s` line, its wall time from bash's
# SECONDS, so a step's time budget can be read off the gate's output.
set -euo pipefail
cd "$(dirname "$0")/.."

current=""
# Close the running step with its wall time, then open step $1 (short
# name) with header $2.
step() {
    done_step
    current=$1
    echo "== $2 =="
    SECONDS=0
}
done_step() {
    if [[ -n $current ]]; then
        echo "-- $current: ${SECONDS} s"
    fi
}

step fmt "fmt"
cargo fmt --all -- --check

step clippy "clippy, all targets (offline, warnings are errors; clippy.toml holds the sync rules)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step rustdoc "rustdoc (offline, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

step build "build (release, offline)"
cargo build --release --offline --workspace

step test "test (offline)"
cargo test -q --offline --workspace

step benchmark-tests "repo benchmark package unit tests (offline, release)"
(cd benchmark && cargo test --offline --release -q)

# The runner comes from the release build above; calling it directly
# spares a cargo invocation (and its freshness check).
bin="${CARGO_TARGET_DIR:-target}/release"

step figures "figures: every table regenerated (the serve, store, replication, topo and storm sections judged before they print) and diffed against the golden FIGURES.txt"
"$bin/figures" all > target/FIGURES.txt
diff -u FIGURES.txt target/FIGURES.txt || {
    echo "figures drifted from FIGURES.txt (a moved simulated number must be re-recorded: figures all > FIGURES.txt)" >&2
    exit 1
}
done_step

echo "verify: OK"
