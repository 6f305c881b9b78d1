#!/usr/bin/env bash
# A/B the repo benchmark: the working tree against a parent revision.
#
#   scripts/bench_ab.sh <parent-rev> <workloads> [pairs=10] [seed=20250612]
#
# <workloads> is one workload name, a comma-separated list of them, or
# `all` for every workload in BENCHMARK.json.
#
# Builds benchmark/ at <parent-rev> (checked out in a temporary git
# worktree under target/bench-ab/) and at the working tree, each into a
# cargo target dir of its own and once for all workloads, then runs
# `pairs` pairs of untraced runs per workload
# (`benchmark/run.sh --workload W --seed S --seconds <run_seconds> --trace 0`),
# alternating which side goes first. For every end-to-end metric in
# BENCHMARK.json it prints, per workload, the median and quartiles of
# both sides, the ratio of the medians (working tree / parent) and the
# pairs the working tree won, then whether the two sides' sim
# fingerprints agree.
#
# A metric whose median is worse than the parent's by more than its
# bound reads WORSE, or UNRESOLVED when the parent's own quartile spread
# on it (q3 - q1 over the median) is already wider than the bound: the
# runs cannot tell a regression from this host's noise, so repeat them.
# Exits 1 when, on any workload, a metric is WORSE or UNRESOLVED or any
# run failed an op, 2 on a usage or build error.
# Needs bash, git, cargo and jq.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload>[,<workload>...]|all [pairs=10] [seed=20250612]" >&2
    exit 2
}
[ "$#" -ge 2 ] && [ "$#" -le 4 ] || usage
rev_arg="$1"
workload_arg="$2"
pairs="${3:-10}"
seed="${4:-20250612}"
case "$pairs$seed" in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$root/BENCHMARK.json"
if [ "$workload_arg" = all ]; then
    workloads="$(jq -r '.workloads[].name' "$spec")"
else
    workloads="$(tr ',' '\n' <<<"$workload_arg")"
fi
for workload in $workloads; do
    jq -e --arg w "$workload" '.workloads | any(.name == $w)' "$spec" >/dev/null || {
        echo "bench_ab: unknown workload '$workload'" >&2
        exit 2
    }
done
[ -n "$workloads" ] || usage
multi=$([ "$(wc -w <<<"$workloads")" -gt 1 ] && echo 1 || echo 0)
seconds="$(jq -r '.run_seconds' "$spec")"
rev="$(git -C "$root" rev-parse --verify "$rev_arg^{commit}")" || usage

ab="$root/target/bench-ab"
tree="$ab/parent-src"
mkdir -p "$ab"
rm -rf "$ab/runs"

cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
    git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach --quiet "$tree" "$rev"

# side -> source tree and target dir
src_of() { if [ "$1" = parent ]; then echo "$tree"; else echo "$root"; fi; }
target_of() { echo "$ab/target-$1"; }

for side in parent work; do
    echo "bench_ab: building $side ($( [ "$side" = parent ] && echo "${rev:0:12}" || echo "working tree"))" >&2
    CARGO_TARGET_DIR="$(target_of "$side")" cargo build --release --offline \
        --manifest-path "$(src_of "$side")/benchmark/Cargo.toml" >&2 || exit 2
done

run_one() { # side pair
    local side="$1" i="$2" out
    out="$runs/$side-$i.out"
    CARGO_TARGET_DIR="$(target_of "$side")" bash "$(src_of "$side")/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$out" 2>"$runs/$side-$i.err" || true
    tail -n 1 "$out" >"$runs/$side-$i.json"
    jq -e '.metrics' "$runs/$side-$i.json" >/dev/null 2>&1 || {
        echo "bench_ab: $side run $i printed no result line (see $runs/$side-$i.err)" >&2
        exit 2
    }
    grep -o 'sim_fingerprint 0x[0-9a-f]*' "$out" | awk '{print $2}' >"$runs/$side-$i.fp" || true
}

ab_workload() { # prints one workload's table; fails if it has a WORSE or UNRESOLVED line
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="parent work"; else order="work parent"; fi
        for side in $order; do
            run_one "$side" "$i"
        done
        echo "bench_ab: pair $i/$pairs done ($order)" >&2
    done

    collect() { for i in $(seq 1 "$pairs"); do cat "$runs/$1-$i.json"; done | jq -s .; }
    collect parent >"$runs/parent.json"
    collect work >"$runs/work.json"

    echo "workload $workload, seed $seed, --seconds $seconds, $pairs alternating pairs; parent ${rev:0:12}"
    jq -r -n --slurpfile spec "$spec" --slurpfile p "$runs/parent.json" --slurpfile w "$runs/work.json" '
        def q($f): sort as $s | ((($s | length) - 1) * $f) as $h | ($h | floor) as $lo
            | $s[$lo] + ($h - $lo) * ($s[$h | ceil] - $s[$lo]);
        def round_to($k): ((. * $k) | round) / $k;
        def num: if . == null then "-" elif . >= 1000 or . <= -1000 then round_to(10) | tostring
            else round_to(10000) | tostring end;
        $p[0] as $pr | $w[0] as $wr
        | (["metric", "better", "bound", "parent p50 [q1, q3]", "work p50 [q1, q3]", "ratio", "won", "verdict"] | @tsv),
          ($spec[0].end_to_end[] as $m
           | [$pr[] | .metrics[$m.name].value] as $pv
           | [$wr[] | .metrics[$m.name].value] as $wv
           | ($pv | q(0.5)) as $pm | ($wv | q(0.5)) as $wm
           | (if $m.better == "lower" then 1 else -1 end) as $sign
           | ([range(0; $pv | length) | select(($wv[.] - $pv[.]) * $sign < 0)] | length) as $won
           | ([range(0; $pv | length) | select($wv[.] == $pv[.])] | length) as $tied
           | (if $pm == 0 then null else $wm / $pm end) as $ratio
           | (if $m.better == "lower" then $wm > $pm * (1 + $m.bound)
              else $wm < $pm * (1 - $m.bound) end) as $worse
           | ($pm != 0 and ($pv | q(0.75)) - ($pv | q(0.25)) > $m.bound * ($pm | fabs)) as $noisy
           | [$m.name, $m.better, "\($m.bound * 100 | round_to(10))%",
              "\($pm | num) [\($pv | q(0.25) | num), \($pv | q(0.75) | num)]",
              "\($wm | num) [\($wv | q(0.25) | num), \($wv | q(0.75) | num)]",
              (if $ratio == null then "-" else ($ratio | round_to(1000) | tostring) + "x" end),
              "\($won)/\($pv | length)" + (if $tied > 0 then " (\($tied) tied)" else "" end),
              (if $worse and $noisy then "UNRESOLVED" elif $worse then "WORSE" else "ok" end)] | @tsv),
          (["failed ops", "-", "0", "\([$pr[] | .failed] | add)", "\([$wr[] | .failed] | add)", "-", "-",
            (if ([$pr[], $wr[] | select(.failed > 0 or .correct != true)] | length) > 0
             then "WORSE" else "ok" end)] | @tsv)
    ' | awk -F'\t' '
        { for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } n = NF }
        END { for (r = 1; r <= NR; r++) { line = ""
                for (i = 1; i <= n; i++) line = line sprintf("%-" w[i] + 2 "s", cell[r, i])
                sub(/ +$/, "", line); print line } }' | tee "$runs/table.txt"

    fp() { sort -u "$runs"/"$1"-*.fp | paste -sd, -; }
    if [ "$(fp parent)" = "$(fp work)" ]; then
        echo "sim_fingerprint: identical ($(fp work))"
    else
        echo "sim_fingerprint: parent $(fp parent), work $(fp work)"
    fi
    ! grep -qE 'WORSE|UNRESOLVED' "$runs/table.txt"
}

failed=""
for workload in $workloads; do
    runs="$ab/runs"
    if [ "$multi" = 1 ]; then
        runs="$ab/runs/$workload"
        echo "bench_ab: running $workload" >&2
    fi
    mkdir -p "$runs"
    ab_workload || failed="$failed $workload"
    if [ "$multi" = 1 ]; then echo; fi
done

if [ -n "$failed" ]; then
    if [ "$multi" = 1 ]; then
        echo "bench_ab: FAILED on$failed — a metric is worse than its bound (or unresolved) or an op failed" >&2
    else
        echo "bench_ab: FAILED — a metric is worse than its bound (or unresolved) or an op failed" >&2
    fi
    exit 1
fi
echo "bench_ab: OK"
