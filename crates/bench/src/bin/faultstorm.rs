//! `flac-faultstorm` — run every seeded rack-wide fault-storm campaign
//! and check cross-subsystem invariants.
//!
//! ```text
//! flac-faultstorm [--seeds N] [--steps M] [--seed X] [--verify]
//! ```
//!
//! * `--seeds N`  — seeds per campaign, `X, X+1, …, X+N-1` (default 8)
//! * `--steps M`  — scheduled storm steps per campaign (default 120)
//! * `--seed X`   — base seed (default 0xF1AC_5708)
//! * `--verify`   — re-run every campaign and assert its event log is
//!   byte-identical (the determinism guarantee)
//!
//! Every seed runs all five campaigns of [`Campaign::ALL`]: the booted
//! rack (file system, RPC, fault boxes, dirty lines), page tiering,
//! the delegated and node-replicated sync cells, and the chunk store.
//!
//! Exits nonzero if any invariant is violated or a replay diverges, and
//! writes the failing campaign's event log (or the first line where
//! the replay diverged) to stderr. To reproduce a failing campaign,
//! re-run with `--seeds 1 --seed <seed>` using the seed printed in its
//! survival row.

use bench::faultstorm::{Campaign, CampaignReport};

/// The settings one invocation runs with.
#[derive(Debug)]
struct Options {
    seeds: u64,
    steps: u32,
    base_seed: u64,
    verify: bool,
}

/// Parse the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seeds: 8,
        steps: 120,
        base_seed: 0xF1AC_5708,
        verify: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--verify" {
            opts.verify = true;
            continue;
        }
        if !["--seeds", "--steps", "--seed"].contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let value = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
            None => v.parse(),
        }
        .map_err(|e| format!("{flag}: {e}"))?;
        match flag.as_str() {
            "--seeds" => opts.seeds = value,
            "--steps" => opts.steps = u32::try_from(value).map_err(|e| format!("{flag}: {e}"))?,
            _ => opts.base_seed = value,
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if opts.base_seed.checked_add(opts.seeds - 1).is_none() {
        return Err(format!(
            "--seed {:#x} --seeds {} runs past the last 64-bit seed",
            opts.base_seed, opts.seeds
        ));
    }
    Ok(opts)
}

/// The first line where two event logs differ: (line number, line of
/// `a`, line of `b`), with an empty string past the end of a log.
fn first_divergence<'a>(a: &'a str, b: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let (mut la, mut lb) = (a.lines(), b.lines());
    let mut line = 1;
    loop {
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x != y => return Some((line, x.unwrap_or(""), y.unwrap_or(""))),
            _ => line += 1,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("flac-faultstorm: {e}");
        eprintln!("usage: flac-faultstorm [--seeds N] [--steps M] [--seed X] [--verify]");
        std::process::exit(2);
    });
    let last_seed = opts.base_seed + (opts.seeds - 1);
    println!(
        "flac-faultstorm: {} campaigns x {} seeds x {} steps, seeds {:#x}..={last_seed:#x}{}",
        Campaign::ALL.len(),
        opts.seeds,
        opts.steps,
        opts.base_seed,
        if opts.verify {
            " (+replay verification)"
        } else {
            ""
        }
    );
    println!("{}", CampaignReport::header());

    let mut failures = 0u64;
    let mut last = None;
    for campaign in Campaign::ALL {
        let name = campaign.name();
        for seed in opts.base_seed..=last_seed {
            let report = campaign.run(seed, opts.steps);
            println!("{}", report.row());
            for v in &report.violations {
                println!("    violation: {v}");
                failures += 1;
            }
            if !report.survived() {
                eprintln!("--- {name} seed {seed:#x} event log ---");
                eprint!("{}", report.log_text);
            }
            if opts.verify {
                let replay = campaign.run(seed, opts.steps);
                if let Some((line, want, got)) =
                    first_divergence(&report.log_text, &replay.log_text)
                {
                    println!("    violation: replay of seed {seed:#x} DIVERGED");
                    eprintln!("--- {name} seed {seed:#x} replay diverged at line {line} ---");
                    eprintln!("run:    {want}\nreplay: {got}");
                    failures += 1;
                }
            }
            last = Some(report);
        }
    }
    if let Some(report) = last {
        println!(
            "\nrack metrics of the last campaign ({} seed {:#018x}):",
            report.campaign.name(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Options, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn options_parse() {
        let o = parse("--seeds 2 --steps 60 --seed 0xF1AC_0001 --verify").unwrap();
        assert_eq!(
            (o.seeds, o.steps, o.base_seed, o.verify),
            (2, 60, 0xF1AC_0001, true)
        );
        assert_eq!(parse("").unwrap().seeds, 8);
        assert!(parse("--seed 0xffffffffffffffff --seeds 1").is_ok());
        assert!(parse("--tiering").is_err(), "campaign selection is gone");
    }

    #[test]
    fn zero_seeds_is_a_usage_error() {
        let err = parse("--seeds 0").unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
    }

    #[test]
    fn a_seed_range_past_u64_max_is_a_usage_error() {
        let err = parse("--seed 0xffffffffffffffff --seeds 2").unwrap_err();
        assert!(err.contains("last 64-bit seed"), "{err}");
    }

    #[test]
    fn first_divergence_names_the_line() {
        assert_eq!(first_divergence("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_divergence("a\nb\n", "a\nc\n"), Some((2, "b", "c")));
        assert_eq!(first_divergence("a\n", "a\nb\n"), Some((2, "", "b")));
    }
}
