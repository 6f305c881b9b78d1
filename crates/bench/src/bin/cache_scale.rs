//! `cache-scale` — wall-clock per-operation gate for the node cache.
//!
//! ```text
//! cache-scale [--quick] [--out PATH] [--gate]
//! cache-scale --check PATH
//! ```
//!
//! * `--quick`       — short run (~1 s) for the CI smoke in `verify.sh`
//! * `--out PATH`    — where to write the JSON report (default `BENCH_cache.json`)
//! * `--gate`        — exit nonzero if the report is malformed, if the two
//!   implementations disagree on simulated cost (at either hit ratio or
//!   at the fixed 4 KiB-span point), or if the node cache's throughput
//!   falls more than 20 % below the baseline's at either hit ratio
//! * `--check PATH`  — run no benchmark; re-read a *committed* report and
//!   enforce the strict acceptance targets: full run, `sim_ns` parity at
//!   every point (the span point included), and node cache ≥ 0.95 ×
//!   baseline at both hit ratios (the committed artifact is best-of-reps)
//!
//! Every point runs one thread, as every workload of the repo drives each
//! node cache from one thread. The full (non-`--quick`) run is the one
//! committed as `BENCH_cache.json`; its acceptance target is recorded in
//! the report's `targets` object.

use bench::cache_scale::{
    check_report, parse_report, run_pair, run_span_points, span_failures, summarize, to_json,
    ScaleConfig, ScaleSummary, HIT_RATIOS, SPAN_PHASES,
};

struct Args {
    quick: bool,
    out: String,
    gate: bool,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        out: String::from("BENCH_cache.json"),
        gate: false,
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
            other => return Err(format!("unknown argument {other:?}")),
        }
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
        "cache-scale: check OK — {path}: {} points, node cache >= 0.95 x baseline at both hit ratios",
        report.points.len()
    );
    std::process::exit(0);
}

fn gate_failures(summaries: &[ScaleSummary], json: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for field in [
        "\"bench\"",
        "\"targets\"",
        "\"results\"",
        "\"summaries\"",
        "\"ops_per_sec\"",
        "\"sim_ns\"",
        "\"single_thread_ratio\"",
        "\"sim_ns_parity\"",
    ] {
        if !json.contains(field) {
            failures.push(format!("report is missing the {field} field"));
        }
    }
    for s in summaries {
        if !s.sim_ns_parity {
            failures.push(format!(
                "hit_permille={}: node cache and baseline charged different simulated ns \
                 for the identical workload",
                s.hit_permille
            ));
        }
        // The smoke gate tolerates machine noise: fail only on a > 20 %
        // regression. The committed full run is held to 5 % by `--check`.
        if s.single_thread_ratio < 0.80 {
            failures.push(format!(
                "hit_permille={}: single-thread throughput ratio {:.3} < 0.80",
                s.hit_permille, s.single_thread_ratio
            ));
        }
    }
    failures
}

fn main() {
    let args = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cache-scale: {e}");
            eprintln!("usage: cache-scale [--quick] [--out PATH] [--gate] | --check PATH");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.check {
        run_check(path);
    }
    let (quick, out, gate) = (args.quick, args.out, args.gate);
    println!(
        "cache-scale: {} mode, one thread, hit ratios (permille) {HIT_RATIOS:?}",
        if quick { "quick" } else { "full" }
    );

    let mut sweeps = Vec::new();
    for hit_permille in HIT_RATIOS {
        let cfg = if quick {
            ScaleConfig::quick(hit_permille)
        } else {
            ScaleConfig::full(hit_permille)
        };
        let points = run_pair(cfg);
        for p in &points {
            println!(
                "  {:>10} hit={:.1}% {:>12.0} ops/s (sim {} ns)",
                p.cache_impl,
                p.hit_permille as f64 / 10.0,
                p.ops_per_sec,
                p.sim_ns
            );
        }
        let s = summarize(&points);
        println!(
            "  summary hit={:.1}%: single_thread_ratio={:.3} parity={}",
            s.hit_permille as f64 / 10.0,
            s.single_thread_ratio,
            s.sim_ns_parity
        );
        sweeps.push((points, s));
    }

    let spans = run_span_points(quick);
    for p in &spans {
        println!(
            "  {:>10} 4 KiB spans: {SPAN_PHASES:?} = {:.1?} ns/line (sim {} ns)",
            p.cache_impl, p.ns_per_line, p.sim_ns
        );
    }

    let json = to_json(&sweeps, &spans, quick);
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
        let summaries: Vec<ScaleSummary> = sweeps.iter().map(|(_, s)| *s).collect();
        let mut failures = gate_failures(&summaries, &on_disk);
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
