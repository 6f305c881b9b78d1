//! `cache-scale` — wall-clock scalability gate for the sharded node cache.
//!
//! ```text
//! cache-scale [--quick] [--out PATH] [--gate] [--threads-max N]
//! cache-scale --check PATH
//! ```
//!
//! * `--quick`       — short run (~1 s) for the CI smoke in `verify.sh`
//! * `--out PATH`    — where to write the JSON report (default `BENCH_cache.json`)
//! * `--gate`        — exit nonzero if the report is malformed, if the two
//!   implementations disagree on simulated cost (in the thread sweeps or
//!   at the fixed 4 KiB-span point), if the sharded cache's
//!   single-thread throughput regresses more than 20 % vs the baseline,
//!   if the miss-heavy (hit = 50 %) sweep has the sharded cache losing to
//!   the baseline by more than 10 % at any thread count the host has
//!   CPUs for (over-subscribed points are printed, not gated), or (on hosts
//!   with ≥ 8 CPUs, where parallel speedup is physically expressible) if
//!   the 8-thread speedup falls below 4x
//! * `--threads-max N` — cap the thread sweep (default 8)
//! * `--check PATH`  — run no benchmark; re-read a *committed* report and
//!   enforce the strict acceptance targets: full run, `sim_ns` parity at
//!   every point (the span point included), and sharded ≥ baseline at
//!   **every** thread count of the
//!   miss-heavy sweep (no noise tolerance — the committed artifact is
//!   best-of-reps, so a loss there is a real regression)
//!
//! The full (non-`--quick`) run is the one committed as `BENCH_cache.json`;
//! its acceptance targets (≥ 4x at the top thread count, single-thread
//! within 5 %, miss-heavy min thread ratio ≥ 1) are recorded in the
//! report's `targets` object, alongside `host_cpus` so a reader can judge
//! whether the speedup target was armed.

use bench::cache_scale::{
    check_report, host_cpus, miss_heavy_smoke, parse_report, run_span_points, run_sweep,
    span_failures, summarize, to_json, ScaleConfig, ScalePoint, ScaleSummary, SPAN_PHASES,
    SPEEDUP_TARGET_MIN_CPUS, THREAD_SWEEP,
};

struct Args {
    quick: bool,
    out: String,
    gate: bool,
    threads_max: usize,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        out: String::from("BENCH_cache.json"),
        gate: false,
        threads_max: 8,
        check: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--quick" => {
                parsed.quick = true;
                i += 1;
            }
            "--gate" => {
                parsed.gate = true;
                i += 1;
            }
            "--out" => {
                parsed.out = need_value(i)?.clone();
                i += 2;
            }
            "--check" => {
                parsed.check = Some(need_value(i)?.clone());
                i += 2;
            }
            "--threads-max" => {
                parsed.threads_max = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--threads-max: {e}"))?;
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.threads_max == 0 {
        return Err("--threads-max must be >= 1".into());
    }
    Ok(parsed)
}

/// `--check PATH`: validate a committed report without benchmarking.
fn run_check(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cache-scale: reading {path}: {e}");
            std::process::exit(2);
        }
    };
    let report = match parse_report(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cache-scale: CHECK FAILURE: {path}: {e}");
            std::process::exit(1);
        }
    };
    let failures = check_report(&report);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("cache-scale: CHECK FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "cache-scale: check OK — {path}: {} points, miss-heavy sweep holds sharded >= baseline",
        report.points.len()
    );
    std::process::exit(0);
}

fn gate_failures(
    sweeps: &[(Vec<ScalePoint>, ScaleSummary)],
    json: &str,
    cpus: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    for field in [
        "\"bench\"",
        "\"targets\"",
        "\"results\"",
        "\"summaries\"",
        "\"ops_per_sec\"",
        "\"sim_ns\"",
        "\"single_thread_ratio\"",
        "\"speedup_top\"",
        "\"sim_ns_parity\"",
        "\"host_cpus\"",
    ] {
        if !json.contains(field) {
            failures.push(format!("report is missing the {field} field"));
        }
    }
    for (points, s) in sweeps {
        if !s.sim_ns_parity {
            failures.push(format!(
                "hit_permille={}: sharded and baseline charged different simulated ns \
                 for the identical workload",
                s.hit_permille
            ));
        }
        // The smoke gate tolerates machine noise: fail only on a > 20 %
        // single-thread regression. The committed full run documents the
        // tighter 5 % acceptance target.
        if s.single_thread_ratio < 0.80 {
            failures.push(format!(
                "hit_permille={}: single-thread throughput ratio {:.3} < 0.80",
                s.hit_permille, s.single_thread_ratio
            ));
        }
        // Parallel wall-clock speedup needs CPUs to run on: the 4x target
        // is only physically expressible when the host grants the sweep's
        // top thread count real cores (a 1-CPU CI container time-slices
        // all 8 threads onto one core, capping aggregate throughput at
        // per-op efficiency). On capable hosts it is enforced.
        if cpus >= SPEEDUP_TARGET_MIN_CPUS && s.speedup_top < 4.0 {
            failures.push(format!(
                "hit_permille={}: speedup {:.2} at {} threads < 4.0 on a {cpus}-CPU host",
                s.hit_permille, s.speedup_top, s.top_threads
            ));
        }
        // Miss-heavy gate: per-op efficiency, not parallel speedup, so it
        // arms on any host, over the thread counts the host can run. The
        // smoke tolerance is 10 %; the strict ≥ 1.0 target at every thread
        // count is enforced on the committed report by `--check`.
        if s.hit_permille == 500 {
            let (failure, skipped) = miss_heavy_smoke(points, cpus);
            for (threads, ratio) in skipped {
                println!(
                    "cache-scale: miss-heavy smoke skips {threads} threads on a {cpus}-CPU \
                     host (sharded/baseline {ratio:.3}, not gated)"
                );
            }
            failures.extend(failure);
        }
    }
    failures
}

fn main() {
    let args = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cache-scale: {e}");
            eprintln!(
                "usage: cache-scale [--quick] [--out PATH] [--gate] [--threads-max N] \
                 | --check PATH"
            );
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.check {
        run_check(path);
    }
    let (quick, out, gate, threads_max) = (args.quick, args.out, args.gate, args.threads_max);

    let threads: Vec<usize> = THREAD_SWEEP
        .iter()
        .copied()
        .filter(|&t| t <= threads_max)
        .collect();
    let hit_ratios: &[u64] = ScaleConfig::hit_ratios(quick);

    let cpus = host_cpus();
    println!(
        "cache-scale: {} mode, threads {threads:?}, hit ratios (permille) {hit_ratios:?}, \
         host CPUs {cpus}",
        if quick { "quick" } else { "full" }
    );

    let mut sweeps = Vec::new();
    for &hit_permille in hit_ratios {
        let cfg = if quick {
            ScaleConfig::quick(hit_permille)
        } else {
            ScaleConfig::full(hit_permille)
        };
        let points = run_sweep(cfg, &threads);
        for p in &points {
            println!(
                "  {:>8} t={} hit={:.1}% {:>12.0} ops/s (sim {} ns)",
                p.cache_impl,
                p.threads,
                p.hit_permille as f64 / 10.0,
                p.ops_per_sec,
                p.sim_ns
            );
        }
        let s = summarize(&points);
        println!(
            "  summary hit={:.1}%: single_thread_ratio={:.3} speedup@{}t={:.2} \
             min_thread_ratio={:.3} parity={}",
            s.hit_permille as f64 / 10.0,
            s.single_thread_ratio,
            s.top_threads,
            s.speedup_top,
            s.min_thread_ratio,
            s.sim_ns_parity
        );
        sweeps.push((points, s));
    }

    let spans = run_span_points(quick);
    for p in &spans {
        println!(
            "  {:>8} 4 KiB spans: {SPAN_PHASES:?} = {:.1?} ns/line (sim {} ns)",
            p.cache_impl, p.ns_per_line, p.sim_ns
        );
    }

    let json = to_json(&sweeps, &spans, quick, cpus);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cache-scale: writing {out}: {e}");
        std::process::exit(2);
    }
    println!("cache-scale: wrote {out}");

    if gate {
        // Re-read what actually landed on disk so the gate catches
        // truncated or clobbered reports, not just in-memory state.
        let on_disk = match std::fs::read_to_string(&out) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cache-scale: re-reading {out}: {e}");
                std::process::exit(1);
            }
        };
        let mut failures = gate_failures(&sweeps, &on_disk, cpus);
        match parse_report(&on_disk) {
            Ok(report) => failures.extend(span_failures(&report.spans)),
            Err(e) => failures.push(format!("report does not parse: {e}")),
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("cache-scale: GATE FAILURE: {f}");
            }
            std::process::exit(1);
        }
        println!("cache-scale: gate OK");
    }
}
