//! The five workloads and the result types they share.
//!
//! Op counts are a fixed function of `--seconds` (frozen per-workload
//! rates calibrated on the reference host), never of elapsed wall time,
//! so every `sim_*` number repeats exactly for a given `(seed, seconds)`.

pub mod recover;
pub mod serve;
pub mod startup;
pub mod sync;

use crate::counters::Delta;
use crate::metrics::LayerValues;
use crate::stats::{Fold, LatencySummary, SegmentRate};
use crate::trace::TraceReport;

/// Workload names, in report order.
pub const NAMES: [&str; 5] = [
    "serve-read-small",
    "serve-write-large",
    "startup-fanout",
    "sync-writers",
    "recover-node-crash",
];

/// `--seconds` the per-workload op counts were calibrated for.
pub const REFERENCE_SECONDS: u64 = 10;

/// Measured segments of every workload's host-timed phase (one more,
/// the first, is the discarded warm-up).
pub const MEASURED_SEGMENTS: u64 = 8;

/// Times the full set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Nodes of every non-serving rack (the serving rack has one server
/// node plus this many client nodes).
pub const NODES: usize = 8;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
}

impl RunConfig {
    /// Scale an op count calibrated at [`REFERENCE_SECONDS`] to this
    /// run's `--seconds` (at least 1).
    pub fn scaled(&self, at_reference: u64) -> u64 {
        (at_reference * self.seconds / REFERENCE_SECONDS).max(1)
    }
}

/// Result of an untraced run: the end-to-end metrics.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Per-op simulated latency (open loop at the reference rate for
    /// `serve-*`, closed loop otherwise).
    pub latency: LatencySummary,
    /// Closed-loop ops per simulated second.
    pub sim_ops_per_s: f64,
    /// Highest ladder rate meeting the SLO (`serve-*`); equal to
    /// `sim_ops_per_s` for the closed-loop-only workloads, which have no
    /// offered-rate ladder.
    pub sim_slo_ops_per_s: f64,
    pub sim_fabric_ops_per_op: f64,
    pub sim_bytes_moved_per_op: f64,
    /// Baseline-design p50 ÷ FlacOS-design p50 on the same op stream.
    pub baseline_speedup: f64,
    pub baseline_p50_ns: u64,
    pub host: SegmentRate,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Order-sensitive hash of the latency stream and counter deltas.
    pub fingerprint: u64,
    /// Free-form lines for the human-readable report (ladder table, …).
    pub notes: Vec<String>,
    /// Failed checks that are not per-op failures (ladder answer at an
    /// end, unsupported p99, final-state mismatch); empty = pass.
    pub violations: Vec<String>,
}

/// Result of a traced run: the per-layer metrics and both identities.
#[derive(Debug, Clone)]
pub struct Layers {
    pub values: LayerValues,
    pub attempted: u64,
    pub failed: u64,
    pub trace: TraceReport,
    /// Failed identities / separation checks; empty = pass.
    pub violations: Vec<String>,
}

/// Fingerprint of a latency stream plus a counter delta.
pub fn fingerprint(latencies: &[u64], delta: &Delta, extra: &[u64]) -> u64 {
    let mut f = Fold::INIT;
    for &l in latencies {
        f.push(l);
    }
    delta.fold_into(&mut f);
    for &e in extra {
        f.push(e);
    }
    f.0
}

/// Median of a few wall-clock samples in seconds.
pub fn median_secs(samples: &[std::time::Duration]) -> f64 {
    crate::stats::median(&samples.iter().map(|d| d.as_secs_f64()).collect::<Vec<_>>())
}

/// What every traced run reports the same way once its phase is over:
/// both identities, the counter and share metrics, the tracing overhead
/// against an untraced pass over the same ops, the boot time, the
/// `rack-sim` probes, and the intended separation (layers the workload
/// leaves idle record no span). Returns the values to extend and the
/// violations found.
pub fn common_layers(
    trace: &TraceReport,
    delta: &Delta,
    ops: u64,
    untraced_wall: std::time::Duration,
    boot: std::time::Duration,
    idle: &[crate::trace::Layer],
    workload: &str,
) -> (LayerValues, Vec<String>) {
    use crate::trace::Layer;
    let mut violations = Vec::new();
    if trace.total_self_host_ns() != trace.root_host_ns {
        violations.push(format!(
            "host identity: Σ layer self times {} ns != traced wall {} ns",
            trace.total_self_host_ns(),
            trace.root_host_ns
        ));
    }
    if !delta.cost_classes_sum_to_charged() {
        violations.push(format!(
            "sim identity: Σ cost-class ns {} != Δtotal_charged_ns {}",
            delta.class_ns.iter().sum::<u64>(),
            delta.charged_ns
        ));
    }
    for layer in idle {
        if trace.layer_spans(*layer) != 0 {
            violations.push(format!("{} recorded spans on {workload}", layer.label()));
        }
    }

    let mut v = LayerValues::zeroed();
    delta.fill_layers(ops, &mut v);
    for (layer, name) in [
        (Layer::FlacosIpc, "flacos-ipc.host_share"),
        (Layer::RedisMini, "redis-mini.host_share"),
        (Layer::Flacdk, "flacdk.host_share"),
        (Layer::FlacStore, "flac-store.host_share"),
        (Layer::Serverless, "serverless.host_share"),
        (Layer::FlacosMem, "flacos-mem.host_share"),
        (Layer::FlacosFs, "flacos-fs.host_share"),
        (Layer::FlacosFault, "flacos-fault.host_share"),
        (Layer::BenchGen, "bench.gen_host_share"),
        (Layer::BenchOracle, "bench.oracle_host_share"),
        (Layer::BenchDriver, "bench.driver_residual_host_share"),
    ] {
        v.set(name, trace.layer_share(layer));
    }
    v.set("bench.spans_recorded", trace.spans_recorded as f64);
    v.set("bench.traced_ops", ops as f64);
    v.set(
        "bench.trace_overhead_pct",
        (trace.root_host_ns as f64 / untraced_wall.as_nanos().max(1) as f64 - 1.0) * 100.0,
    );
    v.set("flacos.boot_host_ms", boot.as_secs_f64() * 1e3);
    crate::probes::rack_sim(&mut v);
    (v, violations)
}
