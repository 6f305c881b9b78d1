#!/usr/bin/env bash
# Deny-list lint: shared kernel state in the flacos-* crates must go
# through flacdk::sync::SyncCell (or another charged primitive), never a
# host mutex that silently assumes rack-wide cache coherence.
#
# Any `Mutex<...>` / `RwLock<...>` declaration in crates/flacos-*/src is
# an error unless the declaration line, or one of the three lines above
# it, carries a `// coherent-local:` annotation explaining why the state
# is genuinely host-local (device media, per-node counters, rebuildable
# indexes, ...). Imports (`use ...::Mutex;`) are fine: only constructed
# types count.
#
# Second check: one-shot `registry().add(...)` calls re-take the registry
# mutex every time, so they are banned from the flacos-*/flacdk crates
# unless annotated `// cold-path: <why>` (same 3-line lookback). Hot
# paths must hold the `Counter` from `CounterRegistry::counter` instead;
# debug builds additionally enforce a per-counter call budget at runtime.
#
# Third check: outside crates/flacdk, a direct `SharedOpLog::append`
# bypasses the flat-combining batcher and pays one interconnect CAS per
# op — the exact serialization the node-replicated tier amortizes away.
# Any `.append(` call in a non-flacdk file that names `SharedOpLog` must
# carry a `// single-op: <why>` annotation (same 3-line lookback);
# `append_batch` is the blessed path and never flagged.
#
# Fourth check: outside flacos-mem (where the primitive lives), the
# tiering/OS crates must not issue page-at-a-time TLB shootdowns — a
# loop of `begin_shootdown`/`shootdown_stepped` over the 512 contiguous
# vpns of a 2 MiB region pays 512 broadcast/ack rounds where one
# `*_range` call pays one. Any non-ranged call in crates/flacos-tier or
# crates/flacos needs a `// single-page: <why>` annotation (same 3-line
# lookback) arguing the vpns are genuinely non-contiguous.
#
# Fifth check: every log walk in the sync cell reads whole contiguous
# runs (`SharedOpLog::read_range`: one invalidate + one burst read per
# run) — the authoritative fold and the crash-recovery drain, the
# combiner-takeover dedup search, replica catch-up and `replay`. A
# per-entry read (`read_entry(` or `log.read(`) pays a fabric round trip
# per 48-byte entry, the walk the range reader replaced. No function in
# crates/flacdk/src/sync/cell/{mod,node_replicated}.rs is exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS=: read -r file line text; do
    # Skip comment-only lines (doc text mentioning the types).
    stripped="${text#"${text%%[![:space:]]*}"}"
    case "$stripped" in
    //*) continue ;;
    esac
    # Annotated on the same line?
    case "$text" in
    *"coherent-local:"*) continue ;;
    esac
    # Annotated within the three preceding lines?
    start=$((line > 3 ? line - 3 : 1))
    if sed -n "${start},$((line - 1))p" "$file" | grep -q "coherent-local:"; then
        continue
    fi
    echo "lint_sync: $file:$line: un-annotated shared lock: $stripped" >&2
    fail=1
done < <(grep -rn --include='*.rs' -E '(Mutex|RwLock)<' crates/flacos-fs/src crates/flacos-ipc/src crates/flacos-mem/src crates/flacos-fault/src crates/flacos-tier/src crates/flacos/src crates/flac-store/src 2>/dev/null || true)

while IFS=: read -r file line text; do
    stripped="${text#"${text%%[![:space:]]*}"}"
    case "$stripped" in
    //*) continue ;;
    esac
    case "$text" in
    *"cold-path:"*) continue ;;
    esac
    start=$((line > 3 ? line - 3 : 1))
    if sed -n "${start},$((line - 1))p" "$file" | grep -q "cold-path:"; then
        continue
    fi
    echo "lint_sync: $file:$line: one-shot registry().add in a kernel crate: $stripped" >&2
    fail=1
done < <(grep -rn --include='*.rs' -F 'registry().add(' crates/flacdk/src crates/flacos-fs/src crates/flacos-ipc/src crates/flacos-mem/src crates/flacos-fault/src crates/flacos-tier/src crates/flacos/src 2>/dev/null || true)

while IFS=: read -r file line text; do
    stripped="${text#"${text%%[![:space:]]*}"}"
    case "$stripped" in
    //*) continue ;;
    esac
    # `.append_batch(` is the amortized path; only bare `.append(` counts.
    case "$text" in
    *"append_batch("*) continue ;;
    *"single-op:"*) continue ;;
    esac
    start=$((line > 3 ? line - 3 : 1))
    if sed -n "${start},$((line - 1))p" "$file" | grep -q "single-op:"; then
        continue
    fi
    echo "lint_sync: $file:$line: direct SharedOpLog::append outside flacdk: $stripped" >&2
    fail=1
done < <(grep -rl --include='*.rs' 'SharedOpLog' crates tests --exclude-dir=flacdk 2>/dev/null |
    xargs -r grep -n '\.append(' /dev/null 2>/dev/null || true)

while IFS=: read -r file line text; do
    stripped="${text#"${text%%[![:space:]]*}"}"
    case "$stripped" in
    //*) continue ;;
    esac
    # The `_range` variants are the amortized path; only bare calls count.
    case "$text" in
    *"begin_shootdown_range("* | *"shootdown_stepped_range("*) continue ;;
    *"single-page:"*) continue ;;
    esac
    start=$((line > 3 ? line - 3 : 1))
    if sed -n "${start},$((line - 1))p" "$file" | grep -q "single-page:"; then
        continue
    fi
    echo "lint_sync: $file:$line: page-at-a-time TLB shootdown in a tiering crate: $stripped" >&2
    fail=1
done < <(grep -rn --include='*.rs' -E '(begin_shootdown|shootdown_stepped)\(' crates/flacos-tier/src crates/flacos/src 2>/dev/null || true)

# Check 5: no per-entry log read anywhere in the two files (comment
# lines skipped).
for file in crates/flacdk/src/sync/cell/mod.rs crates/flacdk/src/sync/cell/node_replicated.rs; do
    while IFS=: read -r line text; do
        stripped="${text#"${text%%[![:space:]]*}"}"
        case "$stripped" in
        //*) continue ;;
        esac
        echo "lint_sync: $file:$line: per-entry log read: $stripped" >&2
        fail=1
    done < <(grep -n -E 'read_entry\(|log\.read\(' "$file" || true)
done

if [ "$fail" -ne 0 ]; then
    echo "lint_sync: FAILED — migrate the state onto flacdk::sync::SyncCell" >&2
    echo "lint_sync: or annotate the declaration with '// coherent-local: <why>'." >&2
    echo "lint_sync: for registry().add, hold a Counter handle on hot paths" >&2
    echo "lint_sync: or annotate the call with '// cold-path: <why>'." >&2
    echo "lint_sync: for SharedOpLog::append outside flacdk, batch through" >&2
    echo "lint_sync: append_batch/nr_publish_batch or annotate '// single-op: <why>'." >&2
    echo "lint_sync: for page-at-a-time shootdowns, use the *_range variant" >&2
    echo "lint_sync: over contiguous vpns or annotate '// single-page: <why>'." >&2
    echo "lint_sync: for per-entry log reads in the sync cell, replay through" >&2
    echo "lint_sync: SharedOpLog::read_range (no per-entry reads in sync/cell)." >&2
    exit 1
fi
echo "lint_sync: OK"
