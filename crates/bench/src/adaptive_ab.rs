//! Ablation A8 — fixed sync policies vs the adaptive driver.
//!
//! §3.2's point is that no single coordination primitive wins
//! everywhere: replication amortizes reads but taxes every writer with
//! replay, delegation makes writes one message but ships every remote
//! read to the owner. We sweep the read ratio of a multi-node workload
//! on one [`SyncCell`] across the replication/delegation break-even and
//! compare every fixed backend against the adaptive driver, which must
//! track the best fixed policy at both ends of the sweep without
//! thrashing in the middle.

use crate::percentile_ns;
use flacdk::sync::{AdaptiveConfig, SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{Decoder, Encoder};
use rack_sim::{Rack, RackConfig, RackReport, SplitMix64};

/// Nodes issuing operations (round-robin).
const NODES: usize = 8;
/// Deterministic workload seed.
const SEED: u64 = 0x0F1A_C0A8;
/// Ops before measurement starts (lets the adaptive driver converge).
const WARMUP_OPS: usize = 200;
/// Measured ops per cell.
const MEASURED_OPS: usize = 1600;
/// Read percentages swept, crossing the break-even from both sides.
pub const READ_PCTS: [u32; 7] = [0, 10, 25, 50, 75, 90, 100];
/// The adaptive driver's arm: no fixed policy.
const ADAPTIVE: (&str, Option<SyncPolicy>) = ("adaptive", None);
/// Every arm of a cell, in table column order: the fixed policies, then
/// the adaptive driver.
const ARMS: [(&str, Option<SyncPolicy>); 6] = [
    ("lock", Some(SyncPolicy::Lock)),
    ("replicated", Some(SyncPolicy::Replicated)),
    ("delegated", Some(SyncPolicy::Delegated)),
    ("rcu", Some(SyncPolicy::Rcu)),
    ("node_replicated", Some(SyncPolicy::NodeReplicated)),
    ADAPTIVE,
];

/// The shared state under test: per-node op tallies (16-byte footprint
/// per node, applied from 12-byte committed ops). Ablations A1 and A10
/// measure the same state.
#[derive(Debug, Default, Clone)]
pub(crate) struct Tally {
    counts: Vec<u64>,
    pub(crate) total: u64,
}

impl Tally {
    /// Zeroed tallies for `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Tally {
            counts: vec![0; nodes],
            total: 0,
        }
    }
}

impl SyncState for Tally {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        let (Ok(node), Ok(amount)) = (d.u32(), d.u64()) else {
            return;
        };
        if let Some(slot) = self.counts.get_mut(node as usize) {
            *slot += amount;
            self.total += amount;
        }
    }
}

/// The op adding `amount` to `node`'s tally.
pub(crate) fn tally_op(node: usize, amount: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(node as u32).put_u64(amount);
    e.into_vec()
}

/// One arm of the sweep: `label` is "adaptive" or a fixed policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveArm {
    /// Display name of the backend.
    pub label: &'static str,
    /// Median per-op latency, ns.
    pub p50_ns: u64,
    /// Tail per-op latency, ns.
    pub p99_ns: u64,
    /// Policy switches the arm performed (0 for fixed backends).
    pub switches: u64,
    /// Backend in force when the arm finished.
    pub final_policy: SyncPolicy,
}

/// All arms of one read-ratio cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveRow {
    /// Percentage of ops that are reads.
    pub read_pct: u32,
    /// Measured ops per arm.
    pub ops: usize,
    /// One entry per fixed policy, plus the adaptive driver.
    pub arms: Vec<AdaptiveArm>,
}

impl AdaptiveRow {
    /// The named arm.
    pub fn arm(&self, label: &str) -> &AdaptiveArm {
        self.arms
            .iter()
            .find(|a| a.label == label)
            .expect("known arm")
    }

    /// Lowest fixed-policy median in this cell.
    pub fn best_fixed_p50(&self) -> u64 {
        self.arms
            .iter()
            .filter(|a| a.label != "adaptive")
            .map(|a| a.p50_ns)
            .min()
            .expect("fixed arms")
    }

    /// Highest fixed-policy median in this cell.
    pub fn worst_fixed_p50(&self) -> u64 {
        self.arms
            .iter()
            .filter(|a| a.label != "adaptive")
            .map(|a| a.p50_ns)
            .max()
            .expect("fixed arms")
    }
}

/// Run one arm: a deterministic read/update mix issued round-robin from
/// every node against a single cell on a fresh rack. Returns the arm and
/// the rack's metrics.
fn run_arm(
    label: &'static str,
    read_pct: u32,
    policy: Option<SyncPolicy>,
) -> (AdaptiveArm, RackReport) {
    let rack = Rack::new(RackConfig::n_node(NODES).with_global_mem(64 << 20));
    let mut cfg =
        SyncCellConfig::new(NODES, policy.unwrap_or(SyncPolicy::Replicated)).with_log(8192, 48);
    if policy.is_none() {
        cfg = cfg.with_adaptive(AdaptiveConfig::default());
    }
    let cell = SyncCell::alloc(rack.global(), "adaptive_ab", cfg, Tally::new(NODES)).expect("cell");

    let mut rng = SplitMix64::new(SEED ^ read_pct as u64);
    let mut latencies = Vec::with_capacity(MEASURED_OPS);
    for i in 0..WARMUP_OPS + MEASURED_OPS {
        let node = rack.node(i % NODES);
        let is_read = (rng.next_u64() % 100) < read_pct as u64;
        let t0 = node.clock().now();
        if is_read {
            cell.read(&node, |t| t.total).expect("read");
        } else {
            cell.update(&node, &tally_op(i % NODES, 1)).expect("update");
        }
        if i >= WARMUP_OPS {
            latencies.push(node.clock().now() - t0);
        }
    }
    latencies.sort_unstable();
    let arm = AdaptiveArm {
        label,
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
        switches: cell.switch_epoch(&rack.node(0)).expect("epoch"),
        final_policy: cell.policy(),
    };
    (arm, rack.metrics_report())
}

/// Run every arm of one read-ratio cell, each on a fresh rack, with the
/// metrics of the adaptive arm: the `sync` per-policy op counters and
/// the policy-switch events.
pub fn run_cell(read_pct: u32) -> (AdaptiveRow, RackReport) {
    let (arms, metrics) = crate::sweep(ARMS, ADAPTIVE, |(label, policy)| {
        run_arm(label, read_pct, policy)
    });
    let row = AdaptiveRow {
        read_pct,
        ops: MEASURED_OPS,
        arms,
    };
    (row, metrics)
}

/// Run the full read-ratio sweep, with the metrics of the adaptive arm
/// at 25% reads.
pub fn run() -> (Vec<AdaptiveRow>, RackReport) {
    crate::sweep(READ_PCTS, 25, run_cell)
}

/// Render the sweep as a p50 table, one column per backend.
pub fn report(rows: &[AdaptiveRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![format!("{}%", r.read_pct)];
            for (l, _) in ARMS {
                cells.push(crate::table::fmt_ns(r.arm(l).p50_ns));
            }
            let ad = r.arm("adaptive");
            cells.push(format!("{} ({})", ad.switches, ad.final_policy));
            cells
        })
        .collect();
    format!(
        "Ablation A8: fixed sync policies vs adaptive driver \
         ({} nodes, {} ops/arm, p50 per op)\n\n{}",
        NODES,
        rows.first().map_or(0, |r| r.ops),
        crate::table::render(
            &[
                "reads",
                "lock p50",
                "replicated p50",
                "delegated p50",
                "rcu p50",
                "node_repl p50",
                "adaptive p50",
                "switches (final)"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: within 10% of the best fixed backend at both
    /// ends of the sweep, and ≥2× better than the worst fixed backend at
    /// its bad end.
    #[test]
    fn adaptive_tracks_best_fixed_at_both_ends() {
        for read_pct in [0u32, 100] {
            let (row, _) = run_cell(read_pct);
            let adaptive = row.arm("adaptive").p50_ns;
            let best = row.best_fixed_p50();
            let worst = row.worst_fixed_p50();
            assert!(
                adaptive as f64 <= best as f64 * 1.1,
                "{read_pct}% reads: adaptive {adaptive} ns vs best fixed {best} ns"
            );
            assert!(
                worst as f64 >= adaptive as f64 * 2.0,
                "{read_pct}% reads: worst fixed {worst} ns vs adaptive {adaptive} ns"
            );
        }
    }

    #[test]
    fn adaptive_lands_on_the_right_backend() {
        let (writes, _) = run_cell(0);
        // Round-robin writers from every node: the write tier for a
        // multi-writer window is the flat-combined node-replicated log.
        assert_eq!(
            writes.arm("adaptive").final_policy,
            SyncPolicy::NodeReplicated
        );
        assert!(writes.arm("adaptive").switches >= 1);
        let (reads, _) = run_cell(100);
        assert_eq!(reads.arm("adaptive").final_policy, SyncPolicy::Replicated);
        assert_eq!(reads.arm("adaptive").switches, 0, "already right");
    }

    #[test]
    fn break_even_crosses_inside_the_sweep() {
        // Replication must win the read-heavy end, delegation the
        // write-heavy end — otherwise the sweep brackets nothing.
        let (writes, _) = run_cell(0);
        assert!(
            writes.arm("delegated").p50_ns < writes.arm("replicated").p50_ns,
            "delegated {} vs replicated {}",
            writes.arm("delegated").p50_ns,
            writes.arm("replicated").p50_ns
        );
        let (reads, _) = run_cell(100);
        assert!(
            reads.arm("replicated").p50_ns < reads.arm("delegated").p50_ns,
            "replicated {} vs delegated {}",
            reads.arm("replicated").p50_ns,
            reads.arm("delegated").p50_ns
        );
    }
}
