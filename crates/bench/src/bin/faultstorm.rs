//! `flac-faultstorm` — run seeded rack-wide fault-storm campaigns and
//! check cross-subsystem invariants.
//!
//! ```text
//! flac-faultstorm [--seeds N] [--steps M] [--seed X] [--verify] [--tiering|--sync|--store]
//! ```
//!
//! * `--seeds N`  — campaigns to run, seeds `X, X+1, …, X+N-1` (default 8)
//! * `--steps M`  — scheduled storm steps per campaign (default 120)
//! * `--seed X`   — base seed (default 0xF1AC_5708)
//! * `--verify`   — re-run every campaign and assert its event log is
//!   byte-identical (the determinism guarantee)
//! * `--tiering`  — run the page-tiering campaign instead (staged
//!   migrations under crashes; old copy stays authoritative)
//! * `--sync`     — run the sync-cell campaigns instead: the delegated
//!   cell under owner crashes, then the node-replicated cell with
//!   combiners killed mid-batch (both fatal windows) and publishers
//!   killed before their summary bit; no committed or published update
//!   lost or double-applied, log replay exact
//! * `--store`    — run the chunk-store campaign instead (cold starts
//!   under fetcher crashes; no chunk ever downloaded twice, index
//!   consistent and replay-exact after the heal)
//!
//! Exits nonzero if any invariant is violated or a replay diverges. To
//! reproduce a failing campaign, re-run with `--seeds 1 --seed <seed>`
//! using the seed printed in its survival row.

use bench::faultstorm::{
    run_campaign, run_nr_sync_campaign, run_store_campaign, run_sync_campaign,
    run_tiering_campaign, StoreSurvivalReport, SurvivalReport, SyncSurvivalReport,
    TieringSurvivalReport,
};

#[allow(clippy::type_complexity)]
fn parse_args() -> Result<(u64, u64, u32, bool, bool, bool, bool), String> {
    let mut seeds = 8u64;
    let mut steps = 120u32;
    let mut base_seed = 0xF1AC_5708u64;
    let mut verify = false;
    let mut tiering = false;
    let mut sync = false;
    let mut store = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--seeds" => {
                seeds = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                i += 2;
            }
            "--steps" => {
                steps = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?;
                i += 2;
            }
            "--seed" => {
                let v = need_value(i)?;
                base_seed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(&hex.replace('_', ""), 16)
                        .map_err(|e| format!("--seed: {e}"))?
                } else {
                    v.parse().map_err(|e| format!("--seed: {e}"))?
                };
                i += 2;
            }
            "--verify" => {
                verify = true;
                i += 1;
            }
            "--tiering" => {
                tiering = true;
                i += 1;
            }
            "--sync" => {
                sync = true;
                i += 1;
            }
            "--store" => {
                store = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if [tiering, sync, store].iter().filter(|&&m| m).count() > 1 {
        return Err("--tiering, --sync and --store are mutually exclusive".into());
    }
    Ok((seeds, base_seed, steps, verify, tiering, sync, store))
}

fn run_tiering(seeds: u64, base_seed: u64, steps: u32, verify: bool) -> u64 {
    println!("{}", TieringSurvivalReport::header());
    let mut failures = 0u64;
    let mut last: Option<TieringSurvivalReport> = None;
    for k in 0..seeds {
        let seed = base_seed + k;
        let report = run_tiering_campaign(seed, steps);
        println!("{}", report.row());
        for v in &report.violations {
            println!("    violation: {v}");
            failures += 1;
        }
        if verify {
            let replay = run_tiering_campaign(seed, steps);
            if replay.log_text != report.log_text {
                println!("    violation: replay of seed {seed:#x} DIVERGED");
                failures += 1;
            }
        }
        last = Some(report);
    }
    if let Some(report) = last {
        println!(
            "\nrack metrics of the last campaign (seed {:#018x}):",
            report.seed
        );
        println!("{}", report.metrics);
    }
    failures
}

fn run_sync(seeds: u64, base_seed: u64, steps: u32, verify: bool) -> u64 {
    let mut failures = 0u64;
    let mut last: Option<SyncSurvivalReport> = None;
    for (name, campaign) in [
        (
            "delegated cell (owner crashes)",
            run_sync_campaign as fn(u64, u32) -> SyncSurvivalReport,
        ),
        (
            "node-replicated cell (combiners and publishers killed mid-batch)",
            run_nr_sync_campaign as fn(u64, u32) -> SyncSurvivalReport,
        ),
    ] {
        println!("{name}:");
        println!("{}", SyncSurvivalReport::header());
        for k in 0..seeds {
            let seed = base_seed + k;
            let report = campaign(seed, steps);
            println!("{}", report.row());
            for v in &report.violations {
                println!("    violation: {v}");
                failures += 1;
            }
            if verify {
                let replay = campaign(seed, steps);
                if replay.log_text != report.log_text {
                    println!("    violation: replay of seed {seed:#x} DIVERGED");
                    failures += 1;
                }
            }
            last = Some(report);
        }
        println!();
    }
    if let Some(report) = last {
        println!(
            "rack metrics of the last campaign (seed {:#018x}):",
            report.seed
        );
        println!("{}", report.metrics);
    }
    failures
}

fn run_store(seeds: u64, base_seed: u64, steps: u32, verify: bool) -> u64 {
    println!("{}", StoreSurvivalReport::header());
    let mut failures = 0u64;
    let mut last: Option<StoreSurvivalReport> = None;
    for k in 0..seeds {
        let seed = base_seed + k;
        let report = run_store_campaign(seed, steps);
        println!("{}", report.row());
        for v in &report.violations {
            println!("    violation: {v}");
            failures += 1;
        }
        if verify {
            let replay = run_store_campaign(seed, steps);
            if replay.log_text != report.log_text {
                println!("    violation: replay of seed {seed:#x} DIVERGED");
                failures += 1;
            }
        }
        last = Some(report);
    }
    if let Some(report) = last {
        println!(
            "\nrack metrics of the last campaign (seed {:#018x}):",
            report.seed
        );
        println!("{}", report.metrics);
    }
    failures
}

fn main() {
    let (seeds, base_seed, steps, verify, tiering, sync, store) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("flac-faultstorm: {e}");
            eprintln!(
                "usage: flac-faultstorm [--seeds N] [--steps M] [--seed X] [--verify] \
                 [--tiering|--sync|--store]"
            );
            std::process::exit(2);
        }
    };

    println!(
        "flac-faultstorm: {seeds} {}campaign(s) x {steps} steps, seeds {base_seed:#x}..{:#x}{}",
        if tiering {
            "tiering "
        } else if sync {
            "sync "
        } else if store {
            "store "
        } else {
            ""
        },
        base_seed + seeds,
        if verify {
            " (+replay verification)"
        } else {
            ""
        }
    );

    if tiering || sync || store {
        let failures = if tiering {
            run_tiering(seeds, base_seed, steps, verify)
        } else if sync {
            run_sync(seeds, base_seed, steps, verify)
        } else {
            run_store(seeds, base_seed, steps, verify)
        };
        if failures > 0 {
            eprintln!("\nflac-faultstorm: {failures} invariant violation(s)");
            std::process::exit(1);
        }
        println!("\nflac-faultstorm: all campaigns survived, all invariants held");
        return;
    }

    println!("{}", SurvivalReport::header());

    let mut failures = 0u64;
    let mut last: Option<SurvivalReport> = None;
    for k in 0..seeds {
        let seed = base_seed + k;
        let report = run_campaign(seed, steps);
        println!("{}", report.row());
        for v in &report.violations {
            println!("    violation: {v}");
            failures += 1;
        }
        if verify {
            let replay = run_campaign(seed, steps);
            if replay.log_text != report.log_text {
                println!("    violation: replay of seed {seed:#x} DIVERGED");
                failures += 1;
            }
        }
        last = Some(report);
    }

    if let Some(report) = last {
        println!(
            "\nrack metrics of the last campaign (seed {:#018x}):",
            report.seed
        );
        println!("{}", report.metrics);
    }

    if failures > 0 {
        eprintln!("\nflac-faultstorm: {failures} invariant violation(s)");
        std::process::exit(1);
    }
    println!("\nflac-faultstorm: all campaigns survived, all invariants held");
}
