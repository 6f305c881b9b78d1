//! `flac-bench` — the one runner behind the four committed benchmark
//! reports (`BENCH_{serve,store,sync,topo}.json`).
//!
//! ```text
//! flac-bench <suite>
//! flac-bench <suite> --check
//! ```
//!
//! `<suite>` is one of `serve`, `store`, `sync`, `topo`. Every suite
//! measures simulated time only, so every run of the same tree produces
//! the same facts and points, byte for byte.
//!
//! * `flac-bench <suite>` runs the suite and re-records
//!   `BENCH_<suite>.json` in the working directory. Its `before[]` rows
//!   are the replaced report's own rows for every point the run changed
//!   or dropped ([`Report::replacing`]).
//! * `flac-bench <suite> --check` runs the suite fresh, judges the fresh
//!   report ([`Suite::failures`]), then requires every fact and every
//!   point column to equal the committed `BENCH_<suite>.json`'s
//!   ([`Report::mismatches`]), so a committed report that the tree no
//!   longer produces fails.
//!
//! Every suite builds one [`Report`] in the one schema of
//! [`crate::report`]. Each suite module supplies only its run and its
//! judgement of a parsed report; this module owns every step they
//! share. Exits 0 on success, 1 on a failed run or check, 2 on a usage
//! error or a committed report that cannot be read or parsed.

use crate::report::Report;
use crate::{serve_scale, store_scale, sync_scale, topo_scale};

const USAGE: &str = "usage: flac-bench <serve|store|sync|topo> [--check]";

/// One benchmark suite with a committed report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
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
    pub const ALL: [Suite; 4] = [Suite::Serve, Suite::Store, Suite::Sync, Suite::Topo];

    /// The suite's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Serve => "serve",
            Suite::Store => "store",
            Suite::Sync => "sync",
            Suite::Topo => "topo",
        }
    }

    /// The committed report's path, `BENCH_<name>.json`.
    pub fn path(self) -> String {
        format!("BENCH_{}.json", self.name())
    }

    /// Run the suite and return its report, printing each point.
    ///
    /// # Errors
    ///
    /// Describes a simulation that failed.
    pub fn run(self) -> Result<Report, String> {
        let report = match self {
            Suite::Serve => serve_scale::run()?,
            Suite::Store => store_scale::run(),
            Suite::Sync => sync_scale::run(),
            Suite::Topo => topo_scale::run(),
        };
        for p in &report.points {
            println!("  {p}");
        }
        Ok(report)
    }

    /// The judgement of a report: it is of this suite, its seeded reruns
    /// reproduced, and it holds the suite's invariants and targets.
    /// Empty means it passes.
    pub fn failures(self, report: &Report) -> Vec<String> {
        if report.suite != self.name() {
            return vec![format!("report is of suite {:?}", report.suite)];
        }
        let judged = match self {
            Suite::Serve => serve_scale::failures(report),
            Suite::Store => store_scale::failures(report),
            Suite::Sync => sync_scale::failures(report),
            Suite::Topo => topo_scale::failures(report),
        };
        let mut failures = report.rerun_failures();
        match judged {
            Ok(found) => failures.extend(found),
            Err(e) => failures.push(format!("report lacks a column: {e}")),
        }
        failures
    }

    /// The `--check` verdict on a `fresh` run against the `committed`
    /// report: the fresh run's judgement, then every fact and point that
    /// differs from the committed file. Empty means it passes.
    pub fn check(self, fresh: &Report, committed: &Report) -> Vec<String> {
        let mut failures = self.failures(fresh);
        failures.extend(fresh.mismatches(committed));
        failures
    }
}

/// Parse the arguments after the program name into the suite and
/// whether to check; the error is the full usage message.
fn parse_args(args: &[String]) -> Result<(Suite, bool), String> {
    let usage = |e: String| format!("flac-bench: {e}\n{USAGE}");
    let (name, flags) = args
        .split_first()
        .ok_or_else(|| usage("missing suite".into()))?;
    let suite = Suite::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| usage(format!("unknown suite {name:?}")))?;
    let mut check = false;
    for flag in flags {
        match flag.as_str() {
            "--check" if !check => check = true,
            path if check && !path.starts_with('-') => {
                return Err(usage(format!("--check takes no path, got {path:?}")))
            }
            other => return Err(usage(format!("unknown argument {other:?}"))),
        }
    }
    Ok((suite, check))
}

/// The `flac-bench` entry point over the arguments after the program
/// name; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let (suite, check) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            return 2;
        }
    };
    let (prefix, path) = (format!("flac-bench {}", suite.name()), suite.path());
    // The committed report: the one `--check` compares with, or the one
    // a re-record replaces (its rows become the new `before[]`).
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {path}: {e}"))
        .and_then(|json| Report::parse(&json).map_err(|e| format!("{path} does not parse: {e}")));
    if let (true, Err(e)) = (check, &committed) {
        eprintln!("{prefix}: {e}");
        return 2;
    }
    let fresh = match suite.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{prefix}: {e}");
            return 1;
        }
    };
    match (check, committed) {
        (true, Ok(committed)) => {
            let failures = suite.check(&fresh, &committed);
            for f in &failures {
                eprintln!("{prefix}: CHECK FAILURE: {f}");
            }
            if failures.is_empty() {
                println!("{prefix}: check OK: the tree re-derives {path}");
            }
            i32::from(!failures.is_empty())
        }
        (_, previous) => {
            let report = match previous {
                Ok(previous) => fresh.replacing(&previous),
                Err(_) => fresh,
            };
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("{prefix}: writing {path}: {e}");
                return 2;
            }
            println!("{prefix}: wrote {path}");
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Point;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<(Suite, bool), String> {
        parse_args(&args(line))
    }

    /// The usage error `line` gets, after checking that it is one: the
    /// usage text follows it, and `main` exits 2 without running a suite.
    fn usage_error(line: &str) -> String {
        let err = parse(line).unwrap_err();
        assert!(err.ends_with(USAGE), "{line}: {err}");
        assert_eq!(main(&args(line)), 2, "{line}");
        err
    }

    /// The committed report of `suite`.
    fn committed(suite: Suite) -> Report {
        let json = match suite {
            Suite::Serve => include_str!("../../../BENCH_serve.json"),
            Suite::Store => include_str!("../../../BENCH_store.json"),
            Suite::Sync => include_str!("../../../BENCH_sync.json"),
            Suite::Topo => include_str!("../../../BENCH_topo.json"),
        };
        Report::parse(json).expect("committed report parses")
    }

    #[test]
    fn options_parse() {
        assert_eq!(parse("topo"), Ok((Suite::Topo, false)));
        assert_eq!(parse("serve --check"), Ok((Suite::Serve, true)));
        for suite in Suite::ALL {
            assert_eq!(parse(suite.name()), Ok((suite, false)));
        }
        assert!(usage_error("serve --seed 1").contains("\"--seed\""));
    }

    #[test]
    fn check_with_quick_is_a_usage_error() {
        for line in [
            "sync --quick",
            "sync --check --quick",
            "sync --quick --check",
        ] {
            assert!(usage_error(line).contains("\"--quick\""), "{line}");
        }
    }

    #[test]
    fn check_with_gate_is_a_usage_error() {
        for line in ["store --gate", "store --check --gate"] {
            assert!(usage_error(line).contains("\"--gate\""), "{line}");
        }
    }

    #[test]
    fn check_with_out_is_a_usage_error() {
        for line in ["serve --out x.json", "serve --check --out x.json"] {
            assert!(usage_error(line).contains("\"--out\""), "{line}");
        }
    }

    #[test]
    fn check_with_a_path_is_a_usage_error() {
        let err = usage_error("topo --check BENCH_topo.json");
        assert!(err.contains("--check takes no path"), "{err}");
    }

    #[test]
    fn a_missing_suite_is_a_usage_error() {
        assert!(usage_error("").contains("missing suite"));
    }

    #[test]
    fn an_unknown_suite_is_a_usage_error() {
        for line in ["--check", "loadgen", "cache", "cache --check"] {
            assert!(usage_error(line).contains("unknown suite"), "{line}");
        }
    }

    /// `report` with column `name` of point `at` (or a fact, for `None`)
    /// set to `value`.
    fn edited(report: &Report, at: Option<usize>, name: &str, value: u64) -> Report {
        let mut out = report.clone();
        match at {
            Some(i) => out.points[i] = out.points[i].clone().with(name, value),
            None => out.facts = out.facts.clone().with(name, value),
        }
        out
    }

    #[test]
    fn every_suite_judges_its_committed_report_and_rejects_a_mutation() {
        for suite in Suite::ALL {
            let name = suite.name();
            let report = committed(suite);
            assert_eq!(suite.failures(&report), Vec::<String>::new(), "{name}");
            assert_eq!(
                suite.check(&report, &report),
                Vec::<String>::new(),
                "{name}"
            );
            // An invariant column or fact whose mutation must fail the
            // judgement, and the rerun column of the schema's one parity
            // check.
            let ((at, col, value), rerun) = match suite {
                Suite::Serve => ((Some(0), "errors", 1), Some("fingerprint_rerun")),
                Suite::Store => ((None, "second_bytes_fetched", 1), Some("sim_ns_rerun")),
                Suite::Sync => ((None, "replica_hit_fabric_ops", 1), Some("sim_ns_rerun")),
                Suite::Topo => ((None, "huge_rounds", 2), Some("sim_ns_rerun")),
            };
            let mutated = edited(&report, at, col, value);
            assert!(
                !suite.failures(&mutated).is_empty(),
                "{name}: {col} = {value} must fail"
            );
            if let Some(rerun) = rerun {
                let failures = suite.failures(&edited(&report, Some(0), rerun, 1));
                assert!(
                    failures.iter().any(|f| f.contains("did not reproduce")),
                    "{name}: {rerun} = 1 must break rerun parity: {failures:?}"
                );
            }
            let other = Suite::ALL.into_iter().find(|&s| s != suite).unwrap();
            assert_eq!(other.failures(&report).len(), 1, "{name} judged as another");
        }
    }

    #[test]
    fn check_names_the_point_column_and_both_values_of_an_edited_column() {
        let fresh = committed(Suite::Topo);
        let key = fresh.points[1].key.clone();
        let was = fresh.points[1].u64("p50_ns").unwrap();
        let failures = Suite::Topo.check(&fresh, &edited(&fresh, Some(1), "p50_ns", was + 1));
        assert_eq!(
            failures,
            [format!(
                "\"{key}\": p50_ns is {was} fresh, {} committed",
                was + 1
            )]
        );
        let base = fresh.facts.u64("base_rounds").unwrap();
        let failures = Suite::Topo.check(&fresh, &edited(&fresh, None, "base_rounds", 7));
        assert_eq!(
            failures,
            [format!(
                "\"facts\": base_rounds is {base} fresh, 7 committed"
            )]
        );
    }

    #[test]
    fn check_names_a_point_the_committed_report_lacks() {
        let fresh = committed(Suite::Sync);
        let mut lacking = fresh.clone();
        let gone = lacking.points.remove(3);
        let failures = Suite::Sync.check(&fresh, &lacking);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with(&format!("\"{}\": produced fresh, absent", gone.key)),
            "{failures:?}"
        );
        assert!(
            failures[0].ends_with(&gone.to_string()),
            "every column named"
        );
    }

    #[test]
    fn check_names_an_extra_committed_point_and_an_extra_column() {
        let fresh = committed(Suite::Store);
        let mut extra = fresh.clone();
        let stale = Point::new("shards=16").with("sim_ns", 1u64);
        extra.points.push(stale.clone());
        extra.points[0] = extra.points[0].clone().with("wall_ns", 5u64);
        let failures = Suite::Store.check(&fresh, &extra);
        let key = &fresh.points[0].key;
        assert_eq!(
            failures,
            [
                format!("\"{key}\": wall_ns is absent fresh, 5 committed"),
                format!("\"shards=16\": committed, not produced fresh: {stale}"),
            ]
        );
        // The same rows in another order fail too.
        let mut reordered = fresh.clone();
        reordered.points.swap(0, 1);
        assert_eq!(Suite::Store.check(&fresh, &reordered).len(), 1);
    }

    #[test]
    fn a_rerun_records_the_moved_points_of_the_report_it_replaces() {
        // Re-recording over a serve report with one edited p50_ns writes
        // exactly that point's replaced row as `before[]`, verbatim.
        let fresh = committed(Suite::Serve);
        let was = fresh.points[2].u64("p50_ns").unwrap();
        let previous = edited(&fresh, Some(2), "p50_ns", was + 7);
        let written = fresh.clone().replacing(&previous);
        assert_eq!(written.points, fresh.points);
        assert_eq!(written.before, [previous.points[2].clone()]);
        assert_eq!(written.before[0].u64("p50_ns"), Ok(was + 7));
        let json = written.to_json();
        assert_eq!(Report::parse(&json), Ok(written), "the file re-reads");
        // The history is not compared: the re-recorded file checks.
        assert_eq!(
            Suite::Serve.check(&fresh, &Report::parse(&json).unwrap()),
            Vec::<String>::new()
        );
    }
}
