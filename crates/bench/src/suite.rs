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
//! Every suite builds one [`Report`] in the one schema of
//! [`crate::report`], which writes, re-reads and judges rerun parity for
//! all five. Each suite module supplies only its run and its two
//! judgements of a parsed report: the gate's invariants and the
//! committed-only targets. This module owns every step they share,
//! including the `before[]` rows of a re-recording. Exits 0 on success,
//! 1 on a gate or check failure, 2 on a usage or I/O error.

use crate::report::Report;
use crate::{cache_scale, serve_scale, store_scale, sync_scale, topo_scale};

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

    /// Run the suite and return its report, printing each point.
    ///
    /// # Errors
    ///
    /// Describes a simulation that failed.
    pub fn run(self, quick: bool) -> Result<Report, String> {
        let report = match self {
            Suite::Cache => cache_scale::run(quick),
            Suite::Serve => serve_scale::run(quick)?,
            Suite::Store => store_scale::run(quick),
            Suite::Sync => sync_scale::run(quick),
            Suite::Topo => topo_scale::run(quick),
        };
        for p in &report.points {
            println!("  {p}");
        }
        Ok(report)
    }

    /// The `--gate` failures of a report: a report that does not parse
    /// or lacks a column, a broken rerun parity, or a broken invariant.
    /// Empty means it passes.
    pub fn gate(self, json: &str) -> Vec<String> {
        self.judge(json, false)
    }

    /// The `--check` failures of a committed report: the quick rule (a
    /// committed report must come from a full run), then the gate, then
    /// the suite's committed-only targets. A quick run is sized for the
    /// gate, not the targets, so those are judged only on a full run.
    /// Empty means it passes.
    pub fn check(self, json: &str) -> Vec<String> {
        self.judge(json, true)
    }

    /// The gate's failures, plus the quick rule and the committed-only
    /// targets when `check` is set.
    fn judge(self, json: &str, check: bool) -> Vec<String> {
        type Judge = fn(&Report) -> Result<Vec<String>, String>;
        let report = match Report::parse(json) {
            Ok(report) => report,
            Err(e) => return vec![format!("report does not parse: {e}")],
        };
        if report.suite != self.name() {
            return vec![format!("report is of suite {:?}", report.suite)];
        }
        let mut failures = Vec::new();
        if check && report.quick {
            failures.push(QUICK_RULE.to_string());
        }
        failures.extend(report.rerun_failures());
        let (gate, targets): (Judge, Judge) = match self {
            Suite::Cache => (cache_scale::gate_failures, cache_scale::target_failures),
            Suite::Serve => (serve_scale::gate_failures, serve_scale::target_failures),
            Suite::Store => (store_scale::gate_failures, store_scale::target_failures),
            Suite::Sync => (sync_scale::gate_failures, sync_scale::target_failures),
            Suite::Topo => (topo_scale::gate_failures, topo_scale::target_failures),
        };
        let verdict = gate(&report).and_then(|mut found| {
            if check && !report.quick {
                found.extend(targets(&report)?);
            }
            Ok(found)
        });
        match verdict {
            Ok(found) => failures.extend(found),
            Err(e) => failures.push(format!("report does not parse: {e}")),
        }
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
            // The report this run replaces, if it is of the same suite
            // and mode: its moved points become the new `before[]`.
            let previous = std::fs::read_to_string(&out)
                .ok()
                .and_then(|json| Report::parse(&json).ok())
                .filter(|p| p.suite == suite.name() && p.quick == quick);
            let mut report = match suite.run(quick) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("{prefix}: {e}");
                    return 1;
                }
            };
            if let Some(previous) = previous {
                report.before = report.moved_since(&previous);
            }
            let json = report.to_json();
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
            // An invariant field whose mutation must fail the gate, and
            // the rerun column the schema's one parity check compares.
            let ((key, value), rerun) = match suite {
                Suite::Cache => (("sim_ns", "1"), None),
                Suite::Serve => (("errors", "1"), Some("fingerprint_rerun")),
                Suite::Store => (("sim_ns_rerun", "1"), Some("sim_ns_rerun")),
                Suite::Sync => (("replica_hit_fabric_ops", "1"), Some("sim_ns_rerun")),
                Suite::Topo => (("huge_rounds", "2"), Some("sim_ns_rerun")),
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
            if let Some(rerun) = rerun {
                let failures = suite.gate(&with_field(&json, rerun, "1"));
                assert!(
                    failures.iter().any(|f| f.contains("did not reproduce")),
                    "{name}: {rerun} = 1 must break rerun parity: {failures:?}"
                );
            }
        }
    }

    #[test]
    fn a_rerun_records_the_moved_points_of_the_report_it_replaces() {
        let name = Suite::Topo.name();
        let out =
            std::env::temp_dir().join(format!("flac-bench-before-{}.json", std::process::id()));
        let out = out.to_str().expect("utf-8 temp path").to_string();
        let run = || main(&[name, "--quick", "--out", &out].map(String::from));
        assert_eq!(run(), 0);
        let first = Report::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(first.before.is_empty(), "nothing to replace");
        // Replace a recording in which one point was slower.
        let key = first.points[1].key.clone();
        let was = first.points[1].u64("sim_ns").unwrap();
        let mut slower = first.clone();
        slower.points[1] = slower.points[1].clone().with("sim_ns", was + 7);
        std::fs::write(&out, slower.to_json()).unwrap();
        assert_eq!(run(), 0);
        let second = Report::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        std::fs::remove_file(&out).expect("remove temp report");
        assert_eq!(second.points, first.points, "the run is deterministic");
        assert_eq!(second.before.len(), 1, "{:?}", second.before);
        assert_eq!(second.before[0].key, key);
        assert_eq!(second.before[0].u64("sim_ns_before"), Ok(was + 7));
        assert_eq!(second.before[0].u64("sim_ns_after"), Ok(was));
    }
}
