//! `flac-sync-scale` — writer-scaling gate for node-replicated sync.
//!
//! ```text
//! flac-sync-scale [--quick] [--out PATH] [--gate]
//! flac-sync-scale --check PATH
//! ```
//!
//! * `--quick`    — small sweep (~seconds) for the CI smoke in `verify.sh`
//! * `--out PATH` — where to write the JSON report (default `BENCH_sync.json`)
//! * `--gate`     — exit nonzero unless every deterministic invariant
//!   holds: rerun parity at every point, node-replicated at least as
//!   fast as delegated at every multi-writer point (strictly faster at
//!   ≥ 2 of the pure-write {2,4,8}-writer points), zero fabric
//!   operations on the replica-hit read path, and one burst read per
//!   span on the replica catch-up and the combiner's slot scan
//! * `--check PATH` — run no benchmark; re-read a *committed* report
//!   and enforce the strict acceptance targets: full run, full sweep
//!   coverage, and every gate invariant
//!
//! The full (non-`--quick`) run is the one committed as
//! `BENCH_sync.json`. Everything here is simulated time on a
//! deterministic driver, so the gate and the check carry no noise
//! tolerance at all.

use bench::sync_scale::{
    check_report, gate_failures, parse_points, parse_report, run_numa_probe, run_probes, run_sweep,
    to_json, SyncScaleConfig,
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
        out: String::from("BENCH_sync.json"),
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
            eprintln!("flac-sync-scale: reading {path}: {e}");
            std::process::exit(2);
        }
    };
    let report = match parse_report(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flac-sync-scale: CHECK FAILURE: {path}: {e}");
            std::process::exit(1);
        }
    };
    let failures = check_report(&report);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("flac-sync-scale: CHECK FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "flac-sync-scale: check OK — {path}: node-replicated holds at every \
         multi-writer point across {} measurements, replica-hit reads = 0 fabric ops, \
         one burst read per catch-up and per combine",
        report.points.len()
    );
    std::process::exit(0);
}

fn main() {
    let args = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("flac-sync-scale: {e}");
            eprintln!("usage: flac-sync-scale [--quick] [--out PATH] [--gate] | --check PATH");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.check {
        run_check(path);
    }

    let cfg = if args.quick {
        SyncScaleConfig::quick()
    } else {
        SyncScaleConfig::full()
    };
    println!(
        "flac-sync-scale: {} mode, {} write rounds per point",
        if args.quick { "quick" } else { "full" },
        cfg.rounds
    );

    let points = run_sweep(cfg);
    for p in &points {
        println!(
            "  {:>16} writers={} reads={:>2}% ops={:>6} avg={:>6} ns/op parity={}",
            p.policy,
            p.writers,
            p.read_pct,
            p.ops,
            p.avg_ns_per_op,
            p.parity()
        );
    }
    let probes = run_probes();
    println!(
        "  replica-hit read path: {} fabric ops across 64 reads",
        probes.replica_hit_fabric_ops
    );
    println!(
        "  span-granular read side: {} global reads per 16-entry catch-up, \
         {} per 8-slot combine",
        probes.catch_up_global_reads, probes.combine_global_reads
    );
    let (flat_claims, pod_claims) = run_numa_probe(if args.quick { 8 } else { 64 });
    println!(
        "  NUMA combiner placement: remote combiner claims flat={flat_claims} \
         pod={pod_claims} (delta {})",
        pod_claims - flat_claims
    );

    // A full run re-records the committed report: rows that moved since
    // the recording it replaces keep their old figure alongside.
    let previous = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|text| parse_points(&text).ok())
        .unwrap_or_default();
    let json = to_json(cfg, &points, probes, &previous);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("flac-sync-scale: writing {}: {e}", args.out);
        std::process::exit(2);
    }
    println!("flac-sync-scale: report written to {}", args.out);

    if args.gate {
        let failures = gate_failures(&points, probes);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("flac-sync-scale: GATE FAILURE: {f}");
            }
            std::process::exit(1);
        }
        println!("flac-sync-scale: gate OK");
    }
}
