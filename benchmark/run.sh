#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh                      every workload untraced, then traced;
#                                         writes benchmark/results/latest.json
#   benchmark/run.sh --selfcheck          determinism + identities + noise check
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is the result
#
# Exits non-zero when the build fails, any op failed (error_rate > 0), an
# identity broke, or a check was violated.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

export FLAC_BENCH_RUSTC="$(rustc --version)"
# One process, one measuring thread: never more threads than the host has.
cpus="$(nproc)"
if [ "$cpus" -lt 1 ]; then
    echo "run.sh: nproc reports $cpus CPUs" >&2
    exit 2
fi
echo "run.sh: nproc=$cpus  $FLAC_BENCH_RUSTC  measuring threads=1" >&2

# Cargo prints to stderr; the result line stays the last line of stdout.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/flac-benchmark"

if [ "$#" -eq 0 ]; then
    set -- --all
fi
exec "$bin" --results-dir "$here/results" "$@"
