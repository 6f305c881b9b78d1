//! `flac-benchmark` — the repo's yardstick: five workloads on two named
//! clocks, end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run. See `benchmark/README.md`.
//!
//! One process, one measuring thread, no helper threads: every driver
//! in this repo is a serial deterministic event loop.

mod counters;
mod json;
mod metrics;
mod probes;
mod report;
mod slo;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, Run};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunConfig;

const USAGE: &str = "\
usage: flac-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       flac-benchmark --all [--seed N] [--seconds S] [--repeat R] [--out FILE]
       flac-benchmark --selfcheck [--seed N] [--seconds S]
options:
  --workload NAME   serve-read-small | serve-write-large | startup-fanout |
                    sync-writers | recover-node-crash
  --seed N          workload seed (default 20250612)
  --seconds S       run length the op counts are sized for, 1..60 (default 10)
  --trace 0|1       0: untraced run, end-to-end metrics (default);
                    1: traced run, per-layer metrics
  --all             every workload untraced, then every workload traced,
                    each run in a process of its own
  --repeat R        with --all: R full sets, report median and spread
  --out FILE        with --all: where to write the JSON report
                    (default <results-dir>/latest.json)
  --selfcheck       same-seed runs must agree exactly on every sim_* metric
                    and fingerprint, another seed must not, host metrics
                    must agree within their bounds, identities must hold
  --results-dir DIR where traces and reports go (default benchmark/results)";

/// Default workload seed, also recorded in `benchmark/README.md`.
pub const DEFAULT_SEED: u64 = 20_250_612;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
    repeat: usize,
    selfcheck: bool,
    out: Option<PathBuf>,
    results_dir: PathBuf,
    /// Where a child of `--all` / `--selfcheck` leaves its summary.
    emit: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: workloads::REFERENCE_SECONDS,
        trace: false,
        all: false,
        repeat: 1,
        selfcheck: false,
        out: None,
        results_dir: PathBuf::from("benchmark/results"),
        emit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => args.seed = parse(&value("a number")?, "--seed")?,
            "--seconds" => args.seconds = parse(&value("a number")?, "--seconds")?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--all" => args.all = true,
            "--repeat" => args.repeat = parse(&value("a number")?, "--repeat")?,
            "--selfcheck" => args.selfcheck = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--results-dir" => args.results_dir = PathBuf::from(value("a path")?),
            "--emit" => args.emit = Some(PathBuf::from(value("a path")?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let modes =
        usize::from(args.workload.is_some()) + usize::from(args.all) + usize::from(args.selfcheck);
    if modes != 1 {
        return Err("give exactly one of --workload, --all, --selfcheck".into());
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: {s:?} is not a valid number"))
}

/// Run one workload, traced or not.
fn run_one(workload: &str, cfg: &RunConfig, trace: bool) -> Result<Run, String> {
    use workloads::{recover, serve, startup, sync};
    let err = |e: rack_sim::SimError| format!("{workload}: simulator error: {e}");
    let outcome = if trace {
        Outcome::Layers(Box::new(match workload {
            "serve-read-small" => serve::run_layers(&serve::READ_SMALL, cfg).map_err(err)?,
            "serve-write-large" => serve::run_layers(&serve::WRITE_LARGE, cfg).map_err(err)?,
            "startup-fanout" => startup::run_layers(cfg).map_err(err)?,
            "sync-writers" => sync::run_layers(cfg).map_err(err)?,
            "recover-node-crash" => recover::run_layers(cfg).map_err(err)?,
            other => return Err(format!("unknown workload {other:?}")),
        }))
    } else {
        Outcome::EndToEnd(match workload {
            "serve-read-small" => serve::run_end_to_end(&serve::READ_SMALL, cfg).map_err(err)?,
            "serve-write-large" => serve::run_end_to_end(&serve::WRITE_LARGE, cfg).map_err(err)?,
            "startup-fanout" => startup::run_end_to_end(cfg).map_err(err)?,
            "sync-writers" => sync::run_end_to_end(cfg).map_err(err)?,
            "recover-node-crash" => recover::run_end_to_end(cfg).map_err(err)?,
            other => return Err(format!("unknown workload {other:?}")),
        })
    };
    Ok(Run::new(workload, *cfg, outcome))
}

fn real_main() -> Result<bool, String> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return Ok(true);
        }
        Err(e) => return Err(format!("{e}\n{USAGE}")),
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
    };
    println!(
        "flac-benchmark: seed {} seconds {} host_cpus {} (one measuring thread)",
        cfg.seed,
        cfg.seconds,
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    if let Some(workload) = &args.workload {
        let run = run_one(workload, &cfg, args.trace)?;
        print!("{}", run.human());
        if let Outcome::Layers(l) = &run.outcome {
            report::write_file(
                &args.results_dir.join(format!("trace-{workload}.json")),
                &l.trace.chrome_trace(workload).compact(),
            )?;
        }
        if let Some(emit) = &args.emit {
            report::write_file(emit, &run.summary_lines())?;
        }
        // The driver reads the last line of standard output.
        println!("{}", run.driver_line().compact());
        return Ok(run.correct());
    }

    if args.selfcheck {
        return report::selfcheck(&cfg, &args.results_dir);
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.results_dir.join("latest.json"));
    report::run_all(&cfg, args.repeat, &args.results_dir, &out)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "flac-benchmark: FAILED (failed ops, a broken identity, or a violated check)"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("flac-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
