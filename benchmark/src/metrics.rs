//! The benchmark's metric names, units and directions — the same list
//! `BENCHMARK.json` declares (a unit test keeps the two in step).
//!
//! Every number names its clock: `sim_*` (unit `sim_ns`, `ops/sim_s`)
//! is simulated time or a simulated count and repeats exactly per seed;
//! `host_*` is wall-clock on this machine.

use std::collections::BTreeMap;

/// One end-to-end metric: name, unit, better direction, regression bound
/// (share of the parent's median).
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Bounds cover what the driver measures: the quartile spread across
/// runs with *different* seeds must stay inside them, and a later PR is
/// rejected when its median is worse by more than the bound.
///
/// * Same-seed reruns of every `sim_*` metric are exactly equal
///   (`--selfcheck` enforces that separately), so the `sim_*` bounds are
///   seed-to-seed variation, not noise: three times the widest spread
///   measured over ten seeds on any workload (`startup-fanout` sets most
///   of them: which images a seed draws decides what is fetched).
/// * `host_*` and `setup_s` take the contract's widest bound. Ten runs
///   on the 2-vCPU reference host spread 5–12 % (up to 21 % for
///   `sync-writers` while a neighbour was busy), with drifts of ±15 %
///   over minutes, so a tenth would refuse the benchmark on noise alone.
/// * `sim_slo_ops_per_s` is a ladder value: one step is 20–33 % of the
///   answer, so any flip exceeds the bound and a steady answer never
///   does.
pub const END_TO_END: [EndToEndSpec; 11] = [
    EndToEndSpec {
        name: "sim_p50_ns",
        unit: "sim_ns",
        better: "lower",
        bound: 0.03,
    },
    EndToEndSpec {
        name: "sim_p99_ns",
        unit: "sim_ns",
        better: "lower",
        bound: 0.1,
    },
    EndToEndSpec {
        name: "sim_ops_per_s",
        unit: "ops/sim_s",
        better: "higher",
        bound: 0.12,
    },
    EndToEndSpec {
        name: "sim_slo_ops_per_s",
        unit: "ops/sim_s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndSpec {
        name: "sim_fabric_ops_per_op",
        unit: "ops/op",
        better: "lower",
        bound: 0.06,
    },
    EndToEndSpec {
        name: "sim_bytes_moved_per_op",
        unit: "B/op",
        better: "lower",
        bound: 0.1,
    },
    EndToEndSpec {
        name: "baseline_speedup",
        unit: "ratio",
        better: "higher",
        bound: 0.08,
    },
    EndToEndSpec {
        name: "host_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndSpec {
        name: "host_ns_per_fabric_op",
        unit: "ns",
        better: "lower",
        bound: 0.25,
    },
    EndToEndSpec {
        name: "host_peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// One per-layer metric: `<crate>.<name>`, unit, better direction.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Per-layer metrics, in report order. Layers are crate names;
/// `bench.` is the harness itself. A workload on which a layer is idle
/// reports that layer's metrics as 0.
pub const PER_LAYER: [PerLayer; 86] = [
    // rack-sim: cost-class decomposition (sums exactly to charged ns/op)
    ("rack-sim.sim_ns_local_per_op", "sim_ns/op", "lower"),
    ("rack-sim.sim_ns_global_read_per_op", "sim_ns/op", "lower"),
    ("rack-sim.sim_ns_global_write_per_op", "sim_ns/op", "lower"),
    ("rack-sim.sim_ns_uncached_per_op", "sim_ns/op", "lower"),
    ("rack-sim.sim_ns_atomic_per_op", "sim_ns/op", "lower"),
    ("rack-sim.sim_ns_cache_maint_per_op", "sim_ns/op", "lower"),
    ("rack-sim.sim_ns_message_per_op", "sim_ns/op", "lower"),
    ("rack-sim.sim_ns_compute_per_op", "sim_ns/op", "lower"),
    ("rack-sim.atomics_per_op", "ops/op", "lower"),
    ("rack-sim.global_reads_per_op", "ops/op", "lower"),
    ("rack-sim.global_writes_per_op", "ops/op", "lower"),
    ("rack-sim.messages_per_op", "ops/op", "lower"),
    ("rack-sim.bytes_copied_per_op", "B/op", "lower"),
    ("rack-sim.cache_hit_ratio", "ratio", "higher"),
    ("rack-sim.cache_misses_per_op", "count/op", "lower"),
    ("rack-sim.cache_writebacks_per_op", "count/op", "lower"),
    ("rack-sim.cache_invalidations_per_op", "count/op", "lower"),
    ("rack-sim.cache_coalesced_fills", "count", "higher"),
    ("rack-sim.host_ns_per_line_hit", "ns", "lower"),
    ("rack-sim.host_ns_per_line_miss", "ns", "lower"),
    ("rack-sim.host_ns_per_atomic", "ns", "lower"),
    // flacos-ipc
    ("flacos-ipc.msgs_per_op", "count/op", "lower"),
    ("flacos-ipc.bytes_per_msg", "B", "higher"),
    ("flacos-ipc.send_sim_ns_per_msg", "sim_ns", "lower"),
    ("flacos-ipc.recv_sim_ns_per_msg", "sim_ns", "lower"),
    ("flacos-ipc.send_host_ns_per_msg", "ns", "lower"),
    ("flacos-ipc.recv_host_ns_per_msg", "ns", "lower"),
    ("flacos-ipc.empty_polls_per_op", "count/op", "lower"),
    ("flacos-ipc.backpressure_per_op", "count/op", "lower"),
    ("flacos-ipc.host_share", "ratio", "lower"),
    // redis-mini
    ("redis-mini.frames_per_poll", "count", "higher"),
    ("redis-mini.reply_batches_per_op", "count/op", "lower"),
    ("redis-mini.protocol_errors", "count", "lower"),
    ("redis-mini.server_util", "ratio", "lower"),
    ("redis-mini.server_self_sim_ns_per_op", "sim_ns/op", "lower"),
    ("redis-mini.server_self_host_ns_per_op", "ns/op", "lower"),
    ("redis-mini.client_self_host_ns_per_op", "ns/op", "lower"),
    ("redis-mini.resp_parse_host_ns_per_frame", "ns", "lower"),
    ("redis-mini.resp_encode_host_ns_per_frame", "ns", "lower"),
    ("redis-mini.store_exec_sim_ns_per_cmd", "sim_ns", "lower"),
    ("redis-mini.store_exec_host_ns_per_cmd", "ns", "lower"),
    ("redis-mini.host_share", "ratio", "lower"),
    // flacdk
    ("flacdk.sync_update_sim_ns_per_op", "sim_ns/op", "lower"),
    ("flacdk.sync_read_local_sim_ns_per_op", "sim_ns/op", "lower"),
    ("flacdk.sync_update_host_ns_per_op", "ns/op", "lower"),
    ("flacdk.nr_ops_per_combine", "count", "higher"),
    ("flacdk.atomics_per_update", "ops/op", "lower"),
    ("flacdk.nr_remote_claims", "count", "lower"),
    ("flacdk.policy_switches", "count", "lower"),
    ("flacdk.reelections", "count", "lower"),
    ("flacdk.host_share", "ratio", "lower"),
    // flac-store
    ("flac-store.chunks_fetched_per_op", "count/op", "lower"),
    ("flac-store.bytes_fetched_per_op", "B/op", "lower"),
    ("flac-store.rack_hit_ratio", "ratio", "higher"),
    ("flac-store.coalesced_ratio", "ratio", "higher"),
    ("flac-store.claims_lost_ratio", "ratio", "lower"),
    ("flac-store.ensure_sim_ns_per_chunk", "sim_ns", "lower"),
    ("flac-store.ensure_host_ns_per_chunk", "ns", "lower"),
    ("flac-store.host_share", "ratio", "lower"),
    // serverless
    ("serverless.manifest_sim_ns_per_op", "sim_ns/op", "lower"),
    ("serverless.fetch_sim_ns_per_op", "sim_ns/op", "lower"),
    ("serverless.init_sim_ns_per_op", "sim_ns/op", "lower"),
    ("serverless.start_self_host_ns_per_op", "ns/op", "lower"),
    ("serverless.host_share", "ratio", "lower"),
    // flacos-mem, flacos-fs
    ("flacos-mem.dedup_intern_host_ns_per_page", "ns", "lower"),
    ("flacos-mem.frames_shared_ratio", "ratio", "higher"),
    ("flacos-mem.host_share", "ratio", "lower"),
    ("flacos-fs.page_cache_hit_ratio", "ratio", "higher"),
    ("flacos-fs.page_read_sim_ns", "sim_ns", "lower"),
    ("flacos-fs.host_share", "ratio", "lower"),
    // flacos-fault
    ("flacos-fault.handle_crash_sim_ns", "sim_ns", "lower"),
    ("flacos-fault.handle_crash_host_ns", "ns", "lower"),
    ("flacos-fault.first_op_after_sim_ns", "sim_ns", "lower"),
    ("flacos-fault.restored_bytes_per_op", "B/op", "lower"),
    ("flacos-fault.boxes_recovered_per_op", "count/op", "lower"),
    ("flacos-fault.reelections_per_op", "count/op", "lower"),
    ("flacos-fault.host_share", "ratio", "lower"),
    // flacos
    ("flacos.boot_host_ms", "ms", "lower"),
    // the harness itself
    ("bench.gen_host_share", "ratio", "lower"),
    ("bench.oracle_host_share", "ratio", "lower"),
    ("bench.driver_residual_host_share", "ratio", "lower"),
    ("bench.sched_delay_p50_ns", "sim_ns", "lower"),
    ("bench.spans_recorded", "count", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.traced_ops", "count", "higher"),
    ("bench.charged_sim_ns_per_op", "sim_ns/op", "lower"),
];

/// Values of the per-layer metrics of one traced run. Every declared
/// name is present from the start (idle layers stay 0), and setting an
/// undeclared name is a bug.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn zeroed() -> Self {
        LayerValues(PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] or `value` is not finite.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} = {value} is not a number");
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// `num / den`, or 0 when the denominator is 0 (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for e in &END_TO_END {
            assert!(ok_name(e.name) && ok_unit(e.unit), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25);
            assert!(seen.insert(e.name));
        }
        for (n, u, b) in &PER_LAYER {
            assert!(ok_name(n) && ok_unit(u), "{n}");
            assert!(*b == "lower" || *b == "higher");
            assert!(seen.insert(n), "duplicate {n}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// the tables above without a JSON parser: every declared metric
    /// appears there with its unit, and nothing else does.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for e in &END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name, e.unit, e.better, e.bound
            );
            assert!(text.contains(&row), "missing or different: {row}");
        }
        for (n, u, b) in &PER_LAYER {
            let row = format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}");
            assert!(text.contains(&row), "missing or different: {row}");
        }
        let declared = text.matches("\"better\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }

    #[test]
    fn layer_values_start_zeroed_and_reject_unknown_names() {
        let mut v = LayerValues::zeroed();
        assert_eq!(v.get("flac-store.rack_hit_ratio"), 0.0);
        v.set("flac-store.rack_hit_ratio", 0.5);
        assert_eq!(v.get("flac-store.rack_hit_ratio"), 0.5);
        assert!(std::panic::catch_unwind(move || v.set("nope.nothing", 1.0)).is_err());
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
