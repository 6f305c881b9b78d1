//! `flac-bench` — the one runner behind the five gated benchmark
//! reports (`BENCH_{cache,serve,store,sync,topo}.json`).
//!
//! ```text
//! flac-bench <suite> [--quick] [--out PATH] [--gate]
//! flac-bench <suite> --check PATH
//! ```
//!
//! * `<suite>`      — one of `cache`, `serve`, `store`, `sync`, `topo`
//! * `--quick`      — the short run of the CI smoke in `verify.sh`
//! * `--out PATH`   — where to write the report (default `BENCH_<suite>.json`)
//! * `--gate`       — re-read the written file and exit nonzero unless it
//!   holds the suite's invariants
//! * `--check PATH` — run no benchmark; judge a *committed* report: a full
//!   run, the suite's invariants, then its committed-only targets
//!
//! Each suite module keeps its own writer and reader, so the committed
//! files keep their shapes; this module owns every step they share.
//! Exits 0 on success, 1 on a gate or check failure, 2 on a usage or
//! I/O error.

use crate::{cache_scale, report, serve_scale, store_scale, sync_scale, topo_scale};

/// The check every committed report must pass before any other.
const QUICK_RULE: &str = "committed report must come from a full run, not --quick";

const USAGE: &str = "usage: flac-bench <cache|serve|store|sync|topo> [--quick] [--out PATH] [--gate]\n       flac-bench <cache|serve|store|sync|topo> --check PATH";

/// One gated benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Node cache vs the single-mutex baseline, wall-clock per op
    /// ([`cache_scale`]).
    Cache,
    /// Open-loop serving over FlacOS IPC and TCP/IP ([`serve_scale`]).
    Serve,
    /// Chunk-store shard sweep and overlap ([`store_scale`]).
    Store,
    /// Node-replicated vs delegated writers ([`sync_scale`]).
    Sync,
    /// Topology depth × page size tiering ([`topo_scale`]).
    Topo,
}

impl Suite {
    /// Every suite.
    pub const ALL: [Suite; 5] = [
        Suite::Cache,
        Suite::Serve,
        Suite::Store,
        Suite::Sync,
        Suite::Topo,
    ];

    /// The suite's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Cache => "cache",
            Suite::Serve => "serve",
            Suite::Store => "store",
            Suite::Sync => "sync",
            Suite::Topo => "topo",
        }
    }

    /// The committed report's path, `BENCH_<name>.json`.
    pub fn default_path(self) -> String {
        format!("BENCH_{}.json", self.name())
    }

    /// Keys every report of the suite carries, space-separated.
    fn required_keys(self) -> &'static str {
        match self {
            Suite::Cache => {
                "bench targets results summaries ops_per_sec sim_ns single_thread_ratio \
                 sim_ns_parity span_results"
            }
            Suite::Serve => "bench targets results",
            Suite::Store => {
                "bench targets shard_sweep cold_fetch_ns cold_fetch_ns_rerun overlap \
                 unique_missing_bytes"
            }
            Suite::Sync => {
                "bench nodes rounds replica_hit_fabric_ops catch_up_global_reads \
                 combine_global_reads results"
            }
            Suite::Topo => "bench pages zipf_skew budget_bytes probe results",
        }
    }

    /// Run the suite, printing its rows, and return the report.
    /// `previous` is the report the new one replaces, if any (`sync`
    /// carries its moved rows forward).
    ///
    /// # Errors
    ///
    /// Describes a simulation that failed.
    pub fn run(self, quick: bool, previous: Option<&str>) -> Result<String, String> {
        Ok(match self {
            Suite::Cache => cache_scale::run(quick),
            Suite::Serve => serve_scale::run(quick)?,
            Suite::Store => store_scale::run(quick),
            Suite::Sync => sync_scale::run(quick, previous),
            Suite::Topo => topo_scale::run(quick),
        })
    }

    /// The `--gate` failures of a report: a missing key, a report that
    /// does not parse, or a broken invariant. Empty means it passes.
    pub fn gate(self, json: &str) -> Vec<String> {
        self.judge(json, false)
    }

    /// The `--check` failures of a committed report: the quick rule (a
    /// committed report must come from a full run), then the gate, then the suite's committed-only targets. A quick
    /// run is sized for the gate, not the targets, so those are judged
    /// only on a full run. Empty means it passes.
    pub fn check(self, json: &str) -> Vec<String> {
        let quick = match report::parse_quick(json) {
            Ok(quick) => quick,
            Err(e) => return vec![e],
        };
        let mut failures = Vec::new();
        if quick {
            failures.push(QUICK_RULE.to_string());
        }
        failures.extend(self.judge(json, !quick));
        failures
    }

    /// The gate's failures, plus the committed-only targets when
    /// `targets` is set.
    fn judge(self, json: &str, targets: bool) -> Vec<String> {
        fn judged<R>(
            parsed: Result<R, String>,
            gate: fn(&R) -> Vec<String>,
            committed: fn(&R) -> Vec<String>,
            targets: bool,
        ) -> Vec<String> {
            let report = match parsed {
                Ok(report) => report,
                Err(e) => return vec![format!("report does not parse: {e}")],
            };
            let mut failures = gate(&report);
            if targets {
                failures.extend(committed(&report));
            }
            failures
        }
        macro_rules! judge {
            ($suite:ident) => {
                judged(
                    $suite::parse_report(json),
                    $suite::gate_failures,
                    $suite::target_failures,
                    targets,
                )
            };
        }
        let mut failures: Vec<String> = self
            .required_keys()
            .split_whitespace()
            .filter(|key| !json.contains(&format!("\"{key}\"")))
            .map(|key| format!("report is missing the \"{key}\" field"))
            .collect();
        failures.extend(match self {
            Suite::Cache => judge!(cache_scale),
            Suite::Serve => judge!(serve_scale),
            Suite::Store => judge!(store_scale),
            Suite::Sync => judge!(sync_scale),
            Suite::Topo => judge!(topo_scale),
        });
        failures
    }
}

/// What one invocation does.
#[derive(Debug, PartialEq, Eq)]
enum Mode {
    /// Run the suite, write the report to `out`, and gate the file if
    /// `gate` is set.
    Run {
        quick: bool,
        out: String,
        gate: bool,
    },
    /// Judge the committed report at this path.
    Check(String),
}

/// Parse the arguments after the program name.
fn parse_args(args: &[String]) -> Result<(Suite, Mode), String> {
    let mut args = args.iter();
    let name = args.next().ok_or("missing suite")?;
    let suite = Suite::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| format!("unknown suite {name:?}"))?;
    let (mut quick, mut gate, mut out, mut check) = (false, false, None, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--out" => out = Some(value_of(flag, &mut args)?),
            "--check" => check = Some(value_of(flag, &mut args)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (check, quick, gate, out) {
        (None, quick, gate, out) => {
            let out = out.unwrap_or_else(|| suite.default_path());
            Ok((suite, Mode::Run { quick, out, gate }))
        }
        (Some(path), false, false, None) => Ok((suite, Mode::Check(path))),
        _ => Err("--check judges a written report; it takes no --quick, --gate or --out".into()),
    }
}

/// The value that follows `flag`.
fn value_of(flag: &str, args: &mut std::slice::Iter<String>) -> Result<String, String> {
    args.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Print each failure of the `label` step and return the exit code: 0
/// when there are none, else 1.
fn verdict(prefix: &str, label: &str, failures: &[String]) -> i32 {
    for f in failures {
        eprintln!("{prefix}: {} FAILURE: {f}", label.to_uppercase());
    }
    if failures.is_empty() {
        println!("{prefix}: {label} OK");
    }
    i32::from(!failures.is_empty())
}

/// The `flac-bench` entry point over the arguments after the program
/// name; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let (suite, mode) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("flac-bench: {e}\n{USAGE}");
            return 2;
        }
    };
    let prefix = format!("flac-bench {}", suite.name());
    match mode {
        Mode::Check(path) => match std::fs::read_to_string(&path) {
            Ok(json) => verdict(&prefix, "check", &suite.check(&json)),
            Err(e) => {
                eprintln!("{prefix}: reading {path}: {e}");
                2
            }
        },
        Mode::Run { quick, out, gate } => {
            let previous = std::fs::read_to_string(&out).ok();
            let json = match suite.run(quick, previous.as_deref()) {
                Ok(json) => json,
                Err(e) => {
                    eprintln!("{prefix}: {e}");
                    return 1;
                }
            };
            if let Err(e) = std::fs::write(&out, json) {
                eprintln!("{prefix}: writing {out}: {e}");
                return 2;
            }
            println!("{prefix}: wrote {out}");
            if !gate {
                return 0;
            }
            // Judge what landed on disk, so a truncated or clobbered
            // file fails, not just bad in-memory values.
            match std::fs::read_to_string(&out) {
                Ok(json) => verdict(&prefix, "gate", &suite.gate(&json)),
                Err(e) => {
                    eprintln!("{prefix}: re-reading {out}: {e}");
                    1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<(Suite, Mode), String> {
        parse_args(&args(line))
    }

    #[test]
    fn options_parse() {
        let run = |quick, out: &str, gate| Mode::Run {
            quick,
            out: out.into(),
            gate,
        };
        let cases = [
            (
                "sync --quick --out q.json --gate",
                Suite::Sync,
                run(true, "q.json", true),
            ),
            ("topo", Suite::Topo, run(false, "BENCH_topo.json", false)),
            (
                "cache --check c.json",
                Suite::Cache,
                Mode::Check("c.json".into()),
            ),
        ];
        for (line, suite, mode) in cases {
            assert_eq!(parse(line).unwrap(), (suite, mode), "{line}");
        }
        assert!(parse("serve --seed 1").is_err(), "--seed is gone");
    }

    #[test]
    fn check_with_quick_is_a_usage_error() {
        let err = parse("sync --quick --check BENCH_sync.json").unwrap_err();
        assert!(err.contains("--quick"), "{err}");
    }

    #[test]
    fn check_with_gate_is_a_usage_error() {
        let err = parse("store --check BENCH_store.json --gate").unwrap_err();
        assert!(err.contains("--gate"), "{err}");
    }

    #[test]
    fn check_with_out_is_a_usage_error() {
        let err = parse("serve --out x.json --check BENCH_serve.json").unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn a_missing_suite_is_a_usage_error() {
        assert_eq!(parse("").unwrap_err(), "missing suite");
        assert_eq!(main(&[]), 2);
    }

    #[test]
    fn an_unknown_suite_is_a_usage_error() {
        let err = parse("--quick").unwrap_err();
        assert!(err.contains("unknown suite"), "{err}");
        assert!(parse("loadgen --quick").is_err());
    }

    #[test]
    fn a_flag_missing_its_value_is_a_usage_error() {
        for line in ["cache --out", "topo --check"] {
            let err = parse(line).unwrap_err();
            assert!(err.ends_with("needs a value"), "{line}: {err}");
        }
        assert_eq!(main(&args("serve --quick --out")), 2);
    }

    /// `json` with the first value of `key` replaced by `value`.
    fn with_field(json: &str, key: &str, value: &str) -> String {
        let at = json.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let end = at + json[at..].find([',', '}']).expect("value end");
        format!("{} {value}{}", &json[..at], &json[end..])
    }

    #[test]
    fn every_suite_gates_its_quick_run_and_checks_only_the_quick_flag() {
        for suite in Suite::ALL {
            // An invariant field whose mutation must fail the gate.
            let (key, value) = match suite {
                Suite::Cache => ("sim_ns", "1"),
                Suite::Serve => ("errors", "1"),
                Suite::Store => ("cold_fetch_ns_rerun", "1"),
                Suite::Sync => ("replica_hit_fabric_ops", "1"),
                Suite::Topo => ("huge_rounds", "2"),
            };
            let name = suite.name();
            let out =
                std::env::temp_dir().join(format!("flac-bench-{name}-{}.json", std::process::id()));
            let out = out.to_str().expect("utf-8 temp path").to_string();
            let code = main(&[name, "--quick", "--out", &out, "--gate"].map(String::from));
            let json = std::fs::read_to_string(&out).expect("report written");
            std::fs::remove_file(&out).expect("remove temp report");
            assert_eq!(code, 0, "{name}: the gate passes on the written file");
            assert_eq!(suite.gate(&json), Vec::<String>::new(), "{name}");
            assert_eq!(suite.check(&json), [QUICK_RULE], "{name}");
            let mutated = with_field(&json, key, value);
            assert_ne!(mutated, json, "{name}: {key} mutated");
            assert!(
                !suite.gate(&mutated).is_empty(),
                "{name}: {key} = {value} must fail the gate"
            );
        }
    }
}
