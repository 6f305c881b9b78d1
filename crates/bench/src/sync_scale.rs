//! Writer scaling of the node-replicated `SyncCell` tier: section
//! `replication` (ablation A10) of `figures`.
//!
//! §3.2's coordination story ends with a write-side question: once
//! writers spread across nodes, does the flat-combined node-replicated
//! log actually beat per-op delegation? This bench sweeps writer count
//! × read ratio over one shared cell under both backends and measures
//! simulated nanoseconds per operation.
//!
//! The write round models concurrent arrival, which a serial driver
//! cannot produce through `update()` alone: each writer publishes its
//! pending ops as **one** batch publication
//! ([`SyncCell::nr_publish_batch`] — one flush plus one fabric atomic
//! for [`OPS_PER_PUB`] ops), the round's combiner drains every slot and
//! commits the whole round with one log-tail CAS
//! ([`SyncCell::nr_combine`]), and the publishers poll their slots for
//! the acknowledgement ([`SyncCell::nr_poll`]). The delegated arm
//! issues the same ops through `update()` one at a time — delegation
//! has no batching story; every remote op pays its own request/reply
//! messages and log append.
//!
//! Reads follow each backend's natural idiom for a round of reads
//! against the same snapshot: the node-replicated reader catches its
//! replica up **once** ([`SyncCell::sync_replica`]) and serves the
//! round's reads from it ([`SyncCell::read_local`]); delegation has no
//! per-node replica, so every read pays the fabric
//! ([`SyncCell::read`]).
//!
//! A separate probe pins the read story: after an explicit
//! [`SyncCell::sync_replica`], node-local reads
//! ([`SyncCell::read_local`]) must perform **zero** fabric operations,
//! and the catch-up itself and the combiner's slot scan each cost
//! **one** burst read however many entries or slots they cover —
//! verified against the rack's hardware counters, not the cost model.
//!
//! Everything is simulated time on a seedless deterministic driver, so
//! every point is re-run and must reproduce exactly (`sim_ns_rerun`).

use crate::adaptive_ab::{tally_op, Tally};
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy};
use rack_sim::{Rack, RackConfig};
use std::sync::Arc;

/// Nodes in the simulated rack.
pub const NODES: usize = 8;
/// Writer counts swept (1 is reference only; the judgement binds at
/// ≥ 2).
pub const WRITER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Read percentages swept.
pub const READ_PCTS: [u32; 3] = [0, 50, 90];
/// Ops each writer batches into one publication per round (sized to
/// the 48-byte log entries' publication slots).
pub const OPS_PER_PUB: usize = 2;

/// Sweep dimensions and sizes.
#[derive(Debug, Clone, Copy)]
pub struct SyncScaleConfig {
    /// Write rounds per point (each round = one [`OPS_PER_PUB`]-op
    /// publication per writer, plus the ratio's reads).
    pub rounds: usize,
}

impl SyncScaleConfig {
    /// The configuration of `figures replication`.
    pub fn full() -> Self {
        SyncScaleConfig { rounds: 400 }
    }
}

fn alloc_cell(rack: &Rack, policy: SyncPolicy) -> Arc<SyncCell<Tally>> {
    SyncCell::alloc(
        rack.global(),
        "sync_scale",
        SyncCellConfig::new(NODES, policy).with_log(8192, 48),
        Tally::new(NODES),
    )
    .expect("cell alloc")
}

/// Reads interleaved per round for a given per-round write count and
/// read ratio.
fn reads_per_round(write_ops: usize, read_pct: u32) -> usize {
    if read_pct >= 100 {
        return write_ops * 16;
    }
    (write_ops * read_pct as usize) / (100 - read_pct as usize)
}

/// Drive one (policy, writers, read_pct) point and return
/// `(ops, total simulated ns)`.
fn run_point(policy: SyncPolicy, writers: usize, read_pct: u32, rounds: usize) -> (u64, u64) {
    let rack = Rack::new(RackConfig::n_node(NODES));
    let cell = alloc_cell(&rack, policy);
    let mut ops = 0u64;
    let mut total_ns = 0u64;
    let write_ops = writers * OPS_PER_PUB;
    let reads = reads_per_round(write_ops, read_pct);
    for round in 0..rounds {
        if policy == SyncPolicy::NodeReplicated {
            // Concurrent arrival: every writer publishes its round's
            // ops as one batch publication, node 0 combines the lot
            // with one log-tail CAS, and the publishers poll their
            // acknowledgement. Publish + poll are charged to the
            // publisher.
            for w in 0..writers {
                let node = rack.node(w);
                let t0 = node.clock().now();
                let batch = [tally_op(w, 1), tally_op(w, 1)];
                let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
                cell.nr_publish_batch(&node, &refs).expect("publish");
                ops += OPS_PER_PUB as u64;
                total_ns += node.clock().now() - t0;
            }
            let combiner = rack.node(0);
            let t0 = combiner.clock().now();
            let combined = cell.nr_combine(&combiner).expect("combine");
            assert_eq!(combined, write_ops as u64, "one combine drains the round");
            total_ns += combiner.clock().now() - t0;
            for w in 0..writers {
                let node = rack.node(w);
                let t0 = node.clock().now();
                let landed = cell.nr_poll(&node).expect("poll");
                assert!(landed.is_some(), "combiner consumed every publication");
                total_ns += node.clock().now() - t0;
            }
        } else {
            for w in 0..writers {
                let node = rack.node(w);
                for _ in 0..OPS_PER_PUB {
                    let t0 = node.clock().now();
                    cell.update(&node, &tally_op(w, 1)).expect("update");
                    ops += 1;
                    total_ns += node.clock().now() - t0;
                }
            }
        }
        // The round's reads all land on one reader node and see the
        // round's committed writes.
        let expect = ((round + 1) * write_ops) as u64;
        let reader = rack.node(NODES - 1);
        if policy == SyncPolicy::NodeReplicated && reads > 0 {
            let t0 = reader.clock().now();
            cell.sync_replica(&reader).expect("sync replica");
            for _ in 0..reads {
                let got = cell.read_local(&reader, |t| t.total).expect("read");
                assert_eq!(got, expect, "synced replica serves the round's reads");
                ops += 1;
            }
            total_ns += reader.clock().now() - t0;
        } else {
            for _ in 0..reads {
                let t0 = reader.clock().now();
                let got = cell.read(&reader, |t| t.total).expect("read");
                assert_eq!(got, expect, "linearizable read");
                ops += 1;
                total_ns += reader.clock().now() - t0;
            }
        }
    }
    // Both arms must agree on the final state — same committed history.
    let expect = (rounds * write_ops) as u64;
    assert_eq!(
        cell.read(&rack.node(0), |t| t.total).expect("final read"),
        expect,
        "all writes committed"
    );
    (ops, total_ns)
}

/// One arm of a sweep point, run twice from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncArm {
    /// Simulated time of all `ops`.
    pub sim_ns: u64,
    /// The same workload re-run from scratch; must equal `sim_ns`.
    pub sim_ns_rerun: u64,
    /// Updates and reads issued.
    pub ops: u64,
}

impl SyncArm {
    /// Simulated ns per op.
    pub fn ns_per_op(&self) -> u64 {
        self.sim_ns / self.ops.max(1)
    }
}

/// One (writers, read ratio) point: both backends on the same workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPoint {
    /// Concurrent writer nodes.
    pub writers: usize,
    /// Read percentage of the ops.
    pub read_pct: u32,
    /// The [`SyncPolicy::Delegated`] arm.
    pub delegated: SyncArm,
    /// The [`SyncPolicy::NodeReplicated`] arm.
    pub node_replicated: SyncArm,
}

impl SyncPoint {
    /// Each backend's name and arm.
    pub fn arms(&self) -> [(&'static str, &SyncArm); 2] {
        [
            ("delegated", &self.delegated),
            ("node_replicated", &self.node_replicated),
        ]
    }
}

/// The writer sweep and the read-side probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncScale {
    /// Write rounds per point.
    pub rounds: usize,
    /// One point per ([`WRITER_COUNTS`], [`READ_PCTS`]) pair.
    pub sweep: Vec<SyncPoint>,
    /// The read-side probes.
    pub probes: Probes,
}

fn run_arm(policy: SyncPolicy, writers: usize, read_pct: u32, rounds: usize) -> SyncArm {
    let (ops, sim_ns) = run_point(policy, writers, read_pct, rounds);
    let (_, sim_ns_rerun) = run_point(policy, writers, read_pct, rounds);
    SyncArm {
        sim_ns,
        sim_ns_rerun,
        ops,
    }
}

/// Run the full sweep, one point per (writers, read ratio), both arms
/// each run twice from scratch.
pub fn run_sweep(cfg: SyncScaleConfig) -> Vec<SyncPoint> {
    let mut out = Vec::new();
    for &writers in &WRITER_COUNTS {
        for &read_pct in &READ_PCTS {
            out.push(SyncPoint {
                writers,
                read_pct,
                delegated: run_arm(SyncPolicy::Delegated, writers, read_pct, cfg.rounds),
                node_replicated: run_arm(SyncPolicy::NodeReplicated, writers, read_pct, cfg.rounds),
            });
        }
    }
    out
}

/// Hardware-counter probes of the node-replicated read side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probes {
    /// Fabric operations of a burst of replica-hit
    /// [`SyncCell::read_local`] calls (the judgement requires 0).
    pub replica_hit_fabric_ops: u64,
    /// Global reads of one [`SyncCell::sync_replica`] that is a full
    /// round ([`NODES`] × [`OPS_PER_PUB`] contiguous entries) behind.
    pub catch_up_global_reads: u64,
    /// Global reads of one [`SyncCell::nr_combine`] over [`NODES`]
    /// pending publications.
    pub combine_global_reads: u64,
}

impl Probes {
    /// A catch-up's reads: the tail and head probes plus **one** burst
    /// over the contiguous log run — not three reads per entry.
    pub const CATCH_UP_GLOBAL_READS: u64 = 3;
    /// A combine's reads: **one** burst over every publication header
    /// line, and the append's tail and head probes — not three reads per
    /// publication.
    pub const COMBINE_GLOBAL_READS: u64 = 3;
}

/// Run the read-side probes: drive one full publish/combine round and a
/// replica catch-up over it, then a burst of replica-hit reads, counting
/// **hardware** fabric operations throughout.
pub fn run_probes() -> Probes {
    let rack = Rack::new(RackConfig::n_node(NODES));
    let cell = alloc_cell(&rack, SyncPolicy::NodeReplicated);
    let reader = rack.node(NODES - 1);
    cell.sync_replica(&reader).expect("materialize replica");
    for w in 0..NODES {
        let batch = [tally_op(w, 1), tally_op(w, 1)];
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        cell.nr_publish_batch(&rack.node(w), &refs)
            .expect("publish");
    }
    let global_reads = |node: &rack_sim::NodeCtx| node.stats().snapshot().global_reads;
    let combiner = rack.node(0);
    let before = global_reads(&combiner);
    cell.nr_combine(&combiner).expect("combine");
    let combine_global_reads = global_reads(&combiner) - before;
    let before = global_reads(&reader);
    cell.sync_replica(&reader).expect("sync replica");
    let catch_up_global_reads = global_reads(&reader) - before;

    let written = (NODES * OPS_PER_PUB) as u64;
    let before = reader.stats().snapshot();
    for _ in 0..64 {
        let total = cell.read_local(&reader, |t| t.total).expect("read");
        assert_eq!(total, written);
    }
    let after = reader.stats().snapshot();
    Probes {
        replica_hit_fabric_ops: (after.global_reads - before.global_reads)
            + (after.global_writes - before.global_writes)
            + (after.global_atomics - before.global_atomics)
            + (after.messages_sent - before.messages_sent),
        catch_up_global_reads,
        combine_global_reads,
    }
}

/// The judgement of a run:
///
/// * node-replicated ≤ delegated ns/op at **every** multi-writer point
///   (writers ≥ 2, all read ratios);
/// * node-replicated strictly faster on the pure-write sweep at ≥ 2 of
///   the {2, 4, 8}-writer points;
/// * every arm's seeded rerun reproduced its simulated time;
/// * the replica-hit read path performed exactly 0 fabric operations;
/// * a replica catch-up and a combine each read the fabric once per
///   span, not once per entry or slot.
pub fn failures(r: &SyncScale) -> Vec<String> {
    let mut failures = Vec::new();
    let mut strict_wins = 0;
    for p in &r.sweep {
        let (writers, read_pct) = (p.writers, p.read_pct);
        for (policy, arm) in p.arms() {
            if arm.sim_ns != arm.sim_ns_rerun {
                failures.push(format!(
                    "{policy} writers={writers} reads={read_pct}%: seeded rerun did not \
                     reproduce sim_ns ({} vs {})",
                    arm.sim_ns, arm.sim_ns_rerun
                ));
            }
        }
        if writers < 2 {
            continue;
        }
        let (nr, del) = (p.node_replicated.ns_per_op(), p.delegated.ns_per_op());
        if nr > del {
            failures.push(format!(
                "node_replicated loses at writers={writers}, reads={read_pct}%: \
                 {nr} vs {del} ns/op"
            ));
        }
        if read_pct == 0 && nr < del {
            strict_wins += 1;
        }
    }
    if strict_wins < 2 {
        failures.push(format!(
            "node_replicated must strictly win ≥ 2 of the pure-write \
             {{2,4,8}}-writer points; won {strict_wins}"
        ));
    }
    let probes = r.probes;
    if probes.replica_hit_fabric_ops != 0 {
        failures.push(format!(
            "replica-hit reads performed {} fabric ops; must be 0",
            probes.replica_hit_fabric_ops
        ));
    }
    if probes.catch_up_global_reads != Probes::CATCH_UP_GLOBAL_READS {
        failures.push(format!(
            "a replica catch-up over one contiguous run performed {} global reads; must be {} \
             (two probes + one burst)",
            probes.catch_up_global_reads,
            Probes::CATCH_UP_GLOBAL_READS
        ));
    }
    if probes.combine_global_reads != Probes::COMBINE_GLOBAL_READS {
        failures.push(format!(
            "a combine over {NODES} pending publications performed {} global reads; must be {} \
             (two probes + one header burst)",
            probes.combine_global_reads,
            Probes::COMBINE_GLOBAL_READS
        ));
    }
    failures
}

/// Run the sweep of [`SyncScaleConfig::full`] and the probes.
pub fn run() -> SyncScale {
    run_with(SyncScaleConfig::full())
}

/// [`run`] at the sizes of `cfg`.
fn run_with(cfg: SyncScaleConfig) -> SyncScale {
    SyncScale {
        rounds: cfg.rounds,
        sweep: run_sweep(cfg),
        probes: run_probes(),
    }
}

/// Render the sweep, one row per (policy, writers, read ratio), and the
/// probes.
pub fn report(r: &SyncScale) -> String {
    let rows: Vec<Vec<String>> = r
        .sweep
        .iter()
        .flat_map(|p| {
            p.arms().map(|(policy, arm)| {
                vec![
                    p.writers.to_string(),
                    format!("{}%", p.read_pct),
                    policy.to_string(),
                    arm.ops.to_string(),
                    arm.sim_ns.to_string(),
                    arm.ns_per_op().to_string(),
                ]
            })
        })
        .collect();
    let probes = r.probes;
    format!(
        "Ablation A10: node-replicated tier vs delegation under concurrent writers \
         ({NODES} nodes, {} rounds/point, simulated ns)\n\n{}\n\
         replica-hit read path: {} fabric ops across 64 reads\n\
         span-granular read side: {} global reads per {}-entry catch-up, {} per \
         {NODES}-publication combine\n",
        r.rounds,
        crate::table::render(
            &["writers", "reads", "policy", "ops", "sim ns", "ns/op"],
            &rows
        ),
        probes.replica_hit_fabric_ops,
        probes.catch_up_global_reads,
        NODES * OPS_PER_PUB,
        probes.combine_global_reads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tenth of the full run's rounds, run once for every test: every
    /// path in seconds.
    fn quick() -> &'static SyncScale {
        static QUICK: std::sync::OnceLock<SyncScale> = std::sync::OnceLock::new();
        QUICK.get_or_init(|| run_with(SyncScaleConfig { rounds: 40 }))
    }

    #[test]
    fn quick_sweep_passes_its_own_gate() {
        let r = quick();
        assert_eq!(r.sweep.len(), WRITER_COUNTS.len() * READ_PCTS.len());
        assert_eq!(failures(r), Vec::<String>::new());
    }

    #[test]
    fn judgement_rejects_each_broken_invariant() {
        // Point 3 is (2 writers, 0% reads), 6 is (4, 0%), 9 is (8, 0%).
        crate::assert_judged(
            quick(),
            failures,
            &[
                ("node_replicated loses at writers=4, reads=50%", |r| {
                    r.sweep[7].node_replicated.sim_ns = r.sweep[7].delegated.sim_ns * 2;
                    r.sweep[7].node_replicated.sim_ns_rerun = r.sweep[7].delegated.sim_ns * 2;
                }),
                ("strictly win", |r| {
                    for i in [3, 6] {
                        r.sweep[i].node_replicated = r.sweep[i].delegated;
                    }
                }),
                (
                    "delegated writers=8 reads=90%: seeded rerun did not reproduce",
                    |r| {
                        r.sweep[11].delegated.sim_ns_rerun += 1;
                    },
                ),
                ("replica-hit reads", |r| r.probes.replica_hit_fabric_ops = 1),
            ],
        );
    }

    #[test]
    fn gate_rejects_a_per_entry_walk() {
        // Three reads per entry or per publication, as a walk that reads
        // each one's header, length and body separately would perform.
        crate::assert_judged(
            quick(),
            failures,
            &[
                ("replica catch-up", |r| {
                    r.probes.catch_up_global_reads = 2 + 3 * (NODES * OPS_PER_PUB) as u64;
                }),
                ("a combine over", |r| {
                    r.probes.combine_global_reads = 2 + 3 * NODES as u64;
                }),
            ],
        );
    }

    #[test]
    fn report_roundtrips_and_checks() {
        let r = quick();
        assert_eq!(failures(r), Vec::<String>::new());
        let text = report(r);
        let rows = crate::table_cells(&text);
        assert_eq!(rows.len(), 2 * r.sweep.len());
        let arms = r
            .sweep
            .iter()
            .flat_map(|p| p.arms().map(|(policy, arm)| (p, policy, arm)));
        for (row, (p, policy, arm)) in rows.iter().zip(arms) {
            let int = |i: usize| row[i].parse::<u64>().expect("integer cell");
            assert_eq!(int(0), p.writers as u64);
            assert_eq!(row[1], format!("{}%", p.read_pct));
            assert_eq!(row[2], policy);
            assert_eq!(
                [int(3), int(4), int(5)],
                [arm.ops, arm.sim_ns, arm.ns_per_op()]
            );
        }
        let probes = r.probes;
        assert!(text.contains(&format!(
            "replica-hit read path: {} fabric ops",
            probes.replica_hit_fabric_ops
        )));
        assert!(text.contains(&format!(
            "{} global reads per {}-entry catch-up, {} per {NODES}-publication combine",
            probes.catch_up_global_reads,
            NODES * OPS_PER_PUB,
            probes.combine_global_reads
        )));
    }

    #[test]
    fn replica_probe_counts_zero_fabric_ops() {
        assert_eq!(
            run_probes(),
            Probes {
                replica_hit_fabric_ops: 0,
                catch_up_global_reads: Probes::CATCH_UP_GLOBAL_READS,
                combine_global_reads: Probes::COMBINE_GLOBAL_READS,
            }
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let (ops_a, ns_a) = super::run_point(SyncPolicy::NodeReplicated, 4, 50, 10);
        let (ops_b, ns_b) = super::run_point(SyncPolicy::NodeReplicated, 4, 50, 10);
        assert_eq!((ops_a, ns_a), (ops_b, ns_b));
    }
}
