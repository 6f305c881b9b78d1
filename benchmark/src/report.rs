//! Turning run results into output: the human-readable table, the
//! driver's one-line JSON, the `--all` report file, and `--selfcheck`.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::{EndToEnd, Layers, RunConfig, NAMES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// What a run produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    EndToEnd(EndToEnd),
    Layers(Box<Layers>),
}

/// One finished run of one workload.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub cfg: RunConfig,
    pub outcome: Outcome,
    /// `VmHWM` when the run ended.
    pub peak_rss_mib: f64,
}

impl Run {
    pub fn new(workload: &str, cfg: RunConfig, outcome: Outcome) -> Self {
        Run {
            workload: workload.to_string(),
            cfg,
            outcome,
            peak_rss_mib: peak_rss_mib(),
        }
    }

    /// `(name, value, unit)` of every metric this run reports, in the
    /// order `BENCHMARK.json` declares them.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        match &self.outcome {
            Outcome::EndToEnd(e) => {
                let value = |name: &str| match name {
                    "sim_p50_ns" => e.latency.p50 as f64,
                    "sim_p99_ns" => e.latency.p99 as f64,
                    "sim_ops_per_s" => e.sim_ops_per_s,
                    "sim_slo_ops_per_s" => e.sim_slo_ops_per_s,
                    "sim_fabric_ops_per_op" => e.sim_fabric_ops_per_op,
                    "sim_bytes_moved_per_op" => e.sim_bytes_moved_per_op,
                    "baseline_speedup" => e.baseline_speedup,
                    "host_ops_per_s" => e.host.median,
                    // Separates "the simulator got faster" from "the
                    // design does fewer fabric ops".
                    "host_ns_per_fabric_op" => 1e9 / (e.host.median * e.sim_fabric_ops_per_op),
                    "host_peak_rss_mib" => self.peak_rss_mib,
                    "setup_s" => e.setup_s,
                    other => unreachable!("undeclared end-to-end metric {other}"),
                };
                END_TO_END
                    .iter()
                    .map(|m| (m.name, value(m.name), m.unit))
                    .collect()
            }
            Outcome::Layers(l) => PER_LAYER
                .iter()
                .map(|(name, unit, _)| (*name, l.values.get(name), *unit))
                .collect(),
        }
    }

    pub fn attempted_failed(&self) -> (u64, u64) {
        match &self.outcome {
            Outcome::EndToEnd(e) => (e.attempted, e.failed),
            Outcome::Layers(l) => (l.attempted, l.failed),
        }
    }

    pub fn violations(&self) -> &[String] {
        match &self.outcome {
            Outcome::EndToEnd(e) => &e.violations,
            Outcome::Layers(l) => &l.violations,
        }
    }

    /// No failed op, no violated check, every metric a finite number.
    pub fn correct(&self) -> bool {
        self.attempted_failed().1 == 0
            && self.violations().is_empty()
            && self.metrics().iter().all(|(_, v, _)| v.is_finite())
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn driver_line(&self) -> Json {
        let (attempted, failed) = self.attempted_failed();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics()
                        .into_iter()
                        .map(|(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, plus what the numbers rest on.
    pub fn human(&self) -> String {
        let mut s = String::new();
        let (attempted, failed) = self.attempted_failed();
        let kind = match &self.outcome {
            Outcome::EndToEnd(_) => "untraced run: end-to-end metrics",
            Outcome::Layers(_) => "traced run: per-layer metrics",
        };
        writeln!(
            s,
            "== {} — {kind} (seed {}, seconds {}) ==",
            self.workload, self.cfg.seed, self.cfg.seconds
        )
        .expect("write to String");
        for (name, value, unit) in self.metrics() {
            write!(s, "  {name:<44} {value:>18.4} {unit}").expect("write to String");
            if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                write!(s, "  ({} is better, bound {} %)", m.better, m.bound * 100.0)
                    .expect("write to String");
            }
            s.push('\n');
        }
        writeln!(
            s,
            "  {:<44} {:>18.6} ({failed} failed / {attempted} attempted)",
            "error_rate",
            failed as f64 / attempted.max(1) as f64
        )
        .expect("write to String");
        match &self.outcome {
            Outcome::EndToEnd(e) => {
                writeln!(
                    s,
                    "  sim latency from {} samples; highest supported tail p{} = {} sim_ns",
                    e.latency.samples, e.latency.tail.0, e.latency.tail.1
                )
                .expect("write to String");
                writeln!(
                    s,
                    "  host_ops_per_s is the median of {} segments, inter-quartile spread {:.2} %",
                    e.host.segments,
                    e.host.iqr_share * 100.0
                )
                .expect("write to String");
                writeln!(
                    s,
                    "  baseline p50 {} sim_ns; sim_fingerprint {:#018x}",
                    e.baseline_p50_ns, e.fingerprint
                )
                .expect("write to String");
                for n in &e.notes {
                    writeln!(s, "  {n}").expect("write to String");
                }
            }
            Outcome::Layers(l) => {
                writeln!(
                    s,
                    "  identities: Σ layer host self times = traced wall ({} ns); \
                     Σ cost-class sim ns = Δtotal_charged_ns — {}",
                    l.trace.root_host_ns,
                    if l.violations.is_empty() {
                        "both hold"
                    } else {
                        "VIOLATED"
                    }
                )
                .expect("write to String");
            }
        }
        for v in self.violations() {
            writeln!(s, "  VIOLATION: {v}").expect("write to String");
        }
        s
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

fn host_descriptor() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "cpus",
            Json::Int(std::thread::available_parallelism().map_or(1, usize::from) as u64),
        ),
        ("cpu_model", Json::str(cpu_model)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        (
            "rustc",
            Json::str(std::env::var("FLAC_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
        ("measuring_threads", Json::Int(1)),
    ])
}

/// What the orchestrating modes keep of a finished run. Every run of
/// `--all` and `--selfcheck` is a child process of its own, as under the
/// driver: `VmHWM` and the allocator's retained heap are then the
/// workload's, not the sum of everything that ran before it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// End-to-end runs only.
    pub fingerprint: Option<String>,
    pub latency_samples: u64,
    pub notes: Vec<String>,
    pub violations: Vec<String>,
}

impl Run {
    /// The summary as `key<TAB>value` lines, for the parent process.
    pub fn summary_lines(&self) -> String {
        let (attempted, failed) = self.attempted_failed();
        let mut s = format!(
            "attempted\t{attempted}\nfailed\t{failed}\ncorrect\t{}\n",
            self.correct()
        );
        for (name, value, _) in self.metrics() {
            writeln!(s, "metric\t{name}\t{value}").expect("write to String");
        }
        if let Outcome::EndToEnd(e) = &self.outcome {
            writeln!(s, "fingerprint\t{:#018x}", e.fingerprint).expect("write to String");
            writeln!(s, "latency_samples\t{}", e.latency.samples).expect("write to String");
            for n in &e.notes {
                writeln!(s, "note\t{n}").expect("write to String");
            }
        }
        for v in self.violations() {
            writeln!(s, "violation\t{v}").expect("write to String");
        }
        s
    }
}

fn parse_summary(text: &str) -> Result<Summary, String> {
    let mut out = Summary::default();
    let bad = |line: &str| format!("malformed summary line {line:?}");
    for line in text.lines() {
        let mut parts = line.splitn(3, '\t');
        let (key, value) = (parts.next().unwrap_or(""), parts.next().ok_or(bad(line))?);
        match key {
            "attempted" => out.attempted = value.parse().map_err(|_| bad(line))?,
            "failed" => out.failed = value.parse().map_err(|_| bad(line))?,
            "correct" => out.correct = value == "true",
            "latency_samples" => out.latency_samples = value.parse().map_err(|_| bad(line))?,
            "fingerprint" => out.fingerprint = Some(value.to_string()),
            "note" => out.notes.push(line["note\t".len()..].to_string()),
            "violation" => out.violations.push(line["violation\t".len()..].to_string()),
            "metric" => {
                let number = parts.next().ok_or(bad(line))?;
                out.metrics
                    .push((value.to_string(), number.parse().map_err(|_| bad(line))?));
            }
            _ => return Err(bad(line)),
        }
    }
    Ok(out)
}

/// Run one workload in a child process (this same executable) and read
/// back its summary. The child prints its own table; its trace, if any,
/// lands in `results_dir`.
fn spawn_run(
    workload: &str,
    cfg: &RunConfig,
    trace: bool,
    results_dir: &Path,
) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let emit = results_dir.join(".summary");
    write_file(&emit, "")?;
    let status = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--results-dir")
        .arg(results_dir)
        .arg("--emit")
        .arg(&emit)
        .status()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(&emit).map_err(|e| format!("read summary: {e}"))?;
    let _ = std::fs::remove_file(&emit);
    if text.is_empty() {
        return Err(format!("{workload}: run ended with {status} and no result"));
    }
    parse_summary(&text)
}

/// `--all`: `repeat` full sets (every workload untraced, then every
/// workload traced), one JSON report with the median and spread of each
/// metric. Returns whether every run was correct.
pub fn run_all(
    cfg: &RunConfig,
    repeat: usize,
    results_dir: &Path,
    out: &Path,
) -> Result<bool, String> {
    // workload -> metric -> values over the repeats
    type Series = BTreeMap<String, Vec<f64>>;
    let mut e2e: BTreeMap<&str, Series> = BTreeMap::new();
    let mut layers: BTreeMap<&str, Series> = BTreeMap::new();
    let mut extra: BTreeMap<&str, Vec<(String, Json)>> = BTreeMap::new();
    let mut all_correct = true;
    for rep in 0..repeat {
        println!("-- set {} of {repeat} --", rep + 1);
        for trace in [false, true] {
            for workload in NAMES {
                let run = spawn_run(workload, cfg, trace, results_dir)?;
                all_correct &= run.correct;
                let series = if trace { &mut layers } else { &mut e2e };
                for (name, value) in run.metrics {
                    series
                        .entry(workload)
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(value);
                }
                if let Some(fingerprint) = run.fingerprint {
                    extra.insert(
                        workload,
                        vec![
                            ("attempted".into(), Json::Int(run.attempted)),
                            ("failed".into(), Json::Int(run.failed)),
                            (
                                "error_rate".into(),
                                Json::Num(run.failed as f64 / run.attempted.max(1) as f64),
                            ),
                            ("latency_samples".into(), Json::Int(run.latency_samples)),
                            ("sim_fingerprint".into(), Json::str(fingerprint)),
                            (
                                "notes".into(),
                                Json::Arr(run.notes.iter().map(Json::str).collect()),
                            ),
                        ],
                    );
                }
            }
        }
    }

    let summarize = |series: &Series, table: &[(&'static str, &'static str)]| {
        Json::Obj(
            table
                .iter()
                .map(|(name, unit)| {
                    let values = &series[*name];
                    let med = median(values);
                    let (lo, hi) = values
                        .iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                            (lo.min(*v), hi.max(*v))
                        });
                    (
                        name.to_string(),
                        Json::obj([
                            ("unit", Json::str(*unit)),
                            ("median", Json::Num(med)),
                            ("min", Json::Num(lo)),
                            ("max", Json::Num(hi)),
                            (
                                "spread",
                                Json::Num(if med == 0.0 {
                                    0.0
                                } else {
                                    (hi - lo) / med.abs()
                                }),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let e2e_table: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layer_table: Vec<_> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    let workloads = NAMES
        .iter()
        .map(|w| {
            let mut fields = extra.remove(w).unwrap_or_default();
            fields.push(("end_to_end".into(), summarize(&e2e[w], &e2e_table)));
            fields.push(("per_layer".into(), summarize(&layers[w], &layer_table)));
            (w.to_string(), Json::Obj(fields))
        })
        .collect();
    let doc = Json::obj([
        ("benchmark", Json::str("flac-benchmark")),
        ("host", host_descriptor()),
        ("seed", Json::Int(cfg.seed)),
        ("seconds", Json::Int(cfg.seconds)),
        ("full_sets", Json::Int(repeat as u64)),
        (
            "spread_is",
            Json::str("(max - min) / median over the full sets"),
        ),
        ("all_correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(workloads)),
    ]);
    write_file(out, &doc.pretty())?;
    println!("report written to {}", out.display());
    Ok(all_correct)
}

/// `--selfcheck`: per workload, two runs with the same seed and one with
/// another, plus one traced run. Returns whether every check passed.
pub fn selfcheck(cfg: &RunConfig, results_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    let mut fail = |what: String| {
        println!("  FAIL: {what}");
        ok = false;
    };
    let other = RunConfig {
        seed: cfg.seed.wrapping_add(1),
        ..*cfg
    };
    for workload in NAMES {
        println!("== selfcheck {workload} ==");
        let a = spawn_run(workload, cfg, false, results_dir)?;
        let b = spawn_run(workload, cfg, false, results_dir)?;
        let c = spawn_run(workload, &other, false, results_dir)?;
        let traced = spawn_run(workload, cfg, true, results_dir)?;
        for run in [&a, &b, &c, &traced] {
            if !run.correct {
                fail(format!(
                    "a run was not correct: {} failed, violations {:?}",
                    run.failed, run.violations
                ));
            }
        }
        if a.fingerprint != b.fingerprint {
            fail("same seed, different sim_fingerprint".into());
        }
        if a.fingerprint == c.fingerprint {
            fail("another seed, same sim_fingerprint".into());
        }
        for ((name, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
            let spec = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("declared metric");
            if name.starts_with("sim_") || name == "baseline_speedup" {
                if va.to_bits() != vb.to_bits() {
                    fail(format!("{name}: {va} vs {vb} with the same seed"));
                }
                continue;
            }
            let allowed = match name.as_str() {
                "setup_s" => (spec.bound * va.min(*vb)).max(0.1),
                _ => spec.bound * va.min(*vb),
            };
            if (va - vb).abs() > allowed {
                fail(format!(
                    "{name}: {va} vs {vb} differ by more than the bound"
                ));
            } else {
                println!("  ok: {name} {va:.4} vs {vb:.4}");
            }
        }
        println!(
            "  sim_* metrics and fingerprint {:?} repeat exactly; seed {} gives {:?}",
            a.fingerprint, other.seed, c.fingerprint
        );
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_on_this_host() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn summary_lines_parse_back() {
        let text = "attempted\t10\nfailed\t1\ncorrect\tfalse\nmetric\tsim_p50_ns\t12.5\n\
                    fingerprint\t0x00000000000000ab\nlatency_samples\t9\n\
                    note\tladder\t20000 rps\nviolation\tp99 from only 9 samples\n";
        let s = parse_summary(text).unwrap();
        assert_eq!((s.attempted, s.failed, s.correct), (10, 1, false));
        assert_eq!(s.metrics, vec![("sim_p50_ns".to_string(), 12.5)]);
        assert_eq!(s.fingerprint.as_deref(), Some("0x00000000000000ab"));
        assert_eq!(s.notes, vec!["ladder\t20000 rps"], "tabs in a note survive");
        assert_eq!(s.violations.len(), 1);
        assert!(parse_summary("attempted").is_err());
        assert!(parse_summary("what\t1").is_err());
    }
}
