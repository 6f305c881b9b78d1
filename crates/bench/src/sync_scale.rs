//! `flac-bench sync` — writer-scaling gate for the node-replicated
//! `SyncCell` tier (ablation A10).
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

use crate::report::{Point, Report};
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{Decoder, Encoder};
use rack_sim::{Rack, RackConfig};
use std::sync::Arc;

/// Nodes in the simulated rack.
pub const NODES: usize = 8;
/// Writer counts swept (1 is reference only; the gate binds at ≥ 2).
pub const WRITER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Read percentages swept.
pub const READ_PCTS: [u32; 3] = [0, 50, 90];
/// The writer counts where the gate demands strict wins (§gate).
pub const MULTI_WRITER: [usize; 3] = [2, 4, 8];
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
    /// CI smoke: enough rounds to exercise every path, ~seconds.
    pub fn quick() -> Self {
        SyncScaleConfig { rounds: 40 }
    }

    /// The committed-report configuration.
    pub fn full() -> Self {
        SyncScaleConfig { rounds: 400 }
    }
}

/// The shared state under test: per-node op tallies.
#[derive(Debug, Default, Clone)]
struct Tally {
    counts: Vec<u64>,
    total: u64,
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

fn tally_op(node: usize, amount: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(node as u32).put_u64(amount);
    e.into_vec()
}

fn alloc_cell(rack: &Rack, policy: SyncPolicy) -> Arc<SyncCell<Tally>> {
    SyncCell::alloc(
        rack.global(),
        "sync_scale",
        SyncCellConfig::new(NODES, policy).with_log(8192, 48),
        Tally {
            counts: vec![0; NODES],
            total: 0,
        },
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

/// Run the full sweep, one point per (policy, writers, read ratio),
/// keyed `policy=<p> writers=<w> read_pct=<r>`: `sim_ns` is the
/// simulated time of all `ops`, `sim_ns_rerun` the same workload re-run
/// from scratch, and `avg_ns_per_op` is `sim_ns / ops`.
pub fn run_sweep(cfg: SyncScaleConfig) -> Vec<Point> {
    let mut out = Vec::new();
    for &writers in &WRITER_COUNTS {
        for &read_pct in &READ_PCTS {
            for (policy, label) in [
                (SyncPolicy::Delegated, "delegated"),
                (SyncPolicy::NodeReplicated, "node_replicated"),
            ] {
                let (ops, total_ns) = run_point(policy, writers, read_pct, cfg.rounds);
                let (_, total_ns_rerun) = run_point(policy, writers, read_pct, cfg.rounds);
                out.push(
                    Point::new(key(label, writers, read_pct))
                        .with("sim_ns", total_ns)
                        .with("sim_ns_rerun", total_ns_rerun)
                        .with("ops", ops)
                        .with("avg_ns_per_op", total_ns / ops.max(1)),
                );
            }
        }
    }
    out
}

/// The key of one sweep point.
fn key(policy: &str, writers: usize, read_pct: u32) -> String {
    format!("policy={policy} writers={writers} read_pct={read_pct}")
}

/// Hardware-counter probes of the node-replicated read side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probes {
    /// Fabric operations of a burst of replica-hit
    /// [`SyncCell::read_local`] calls (the gate requires 0).
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

    /// `report` with the three counts as facts.
    fn record(self, report: Report) -> Report {
        report
            .fact("replica_hit_fabric_ops", self.replica_hit_fabric_ops)
            .fact("catch_up_global_reads", self.catch_up_global_reads)
            .fact("combine_global_reads", self.combine_global_reads)
    }
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

/// NUMA combiner-placement probe: the same round-robin write workload
/// on a flat rack versus a two-rack pod with an interleaved memory
/// home. Returns `(flat, pod)` totals of the
/// `sync/nr_combiner_remote_claims` counter — the flat rack has no
/// distance classes (every claim is "near", so always 0), while the
/// pod counts each combine won by a node away from the op log's home
/// leaf, the traffic the claim tie-break steers toward the home.
pub fn run_numa_probe(rounds: usize) -> (u64, u64) {
    let mut out = [0u64; 2];
    for (slot, rack) in [
        Rack::new(RackConfig::n_node(NODES)),
        Rack::new(RackConfig::pod(NODES / 2, 2)),
    ]
    .into_iter()
    .enumerate()
    {
        let cell = alloc_cell(&rack, SyncPolicy::NodeReplicated);
        for _ in 0..rounds {
            for w in 0..NODES {
                cell.update(&rack.node(w), &tally_op(w, 1)).expect("update");
            }
        }
        out[slot] = (0..NODES)
            .map(|n| {
                rack.node(n)
                    .stats()
                    .snapshot()
                    .subsystems
                    .iter()
                    .find(|c| c.subsystem == "sync" && c.name == "nr_combiner_remote_claims")
                    .map_or(0, |c| c.value)
            })
            .sum::<u64>();
    }
    (out[0], out[1])
}

/// The invariants every report must hold (the `--gate`):
///
/// * node-replicated ≤ delegated ns/op at **every** multi-writer point
///   (writers ≥ 2, all read ratios);
/// * node-replicated strictly faster on the pure-write sweep at ≥ 2 of
///   the {2, 4, 8}-writer points;
/// * the replica-hit read path performed exactly 0 fabric operations;
/// * a replica catch-up and a combine each read the fabric once per
///   span, not once per entry or slot.
///
/// Rerun parity is the schema's own check.
///
/// # Errors
///
/// Names a column or fact the report lacks.
pub fn gate_failures(report: &Report) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let mut strict_wins = 0;
    for &writers in &MULTI_WRITER {
        for &read_pct in &READ_PCTS {
            let (Some(nr), Some(del)) = (
                report.point(&key("node_replicated", writers, read_pct)),
                report.point(&key("delegated", writers, read_pct)),
            ) else {
                failures.push(format!(
                    "missing (writers={writers}, reads={read_pct}%) pair"
                ));
                continue;
            };
            let (nr, del) = (nr.u64("avg_ns_per_op")?, del.u64("avg_ns_per_op")?);
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
    }
    if strict_wins < 2 {
        failures.push(format!(
            "node_replicated must strictly win ≥ 2 of the pure-write \
             {{2,4,8}}-writer points; won {strict_wins}"
        ));
    }
    let replica_hit_fabric_ops = report.facts.u64("replica_hit_fabric_ops")?;
    if replica_hit_fabric_ops != 0 {
        failures.push(format!(
            "replica-hit reads performed {replica_hit_fabric_ops} fabric ops; must be 0"
        ));
    }
    let catch_up_global_reads = report.facts.u64("catch_up_global_reads")?;
    if catch_up_global_reads != Probes::CATCH_UP_GLOBAL_READS {
        failures.push(format!(
            "a replica catch-up over one contiguous run performed {catch_up_global_reads} \
             global reads; must be {} (two probes + one burst)",
            Probes::CATCH_UP_GLOBAL_READS
        ));
    }
    let combine_global_reads = report.facts.u64("combine_global_reads")?;
    if combine_global_reads != Probes::COMBINE_GLOBAL_READS {
        failures.push(format!(
            "a combine over {NODES} pending publications performed {combine_global_reads} \
             global reads; must be {} (two probes + one header burst)",
            Probes::COMBINE_GLOBAL_READS
        ));
    }
    Ok(failures)
}

/// The committed report's own target: every (policy, writers, reads)
/// point of the sweep present.
///
/// # Errors
///
/// Never: every check is on point keys.
pub fn target_failures(report: &Report) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for &writers in &WRITER_COUNTS {
        for &read_pct in &READ_PCTS {
            for policy in ["delegated", "node_replicated"] {
                if report.point(&key(policy, writers, read_pct)).is_none() {
                    failures.push(format!(
                        "missing point ({policy}, writers={writers}, reads={read_pct}%)"
                    ));
                }
            }
        }
    }
    Ok(failures)
}

/// Run the sweep and the probes, printing the probe lines, and build
/// the report.
pub fn run(quick: bool) -> Report {
    let cfg = if quick {
        SyncScaleConfig::quick()
    } else {
        SyncScaleConfig::full()
    };
    println!(
        "sync: {} mode, {} write rounds per point",
        if quick { "quick" } else { "full" },
        cfg.rounds
    );
    let points = run_sweep(cfg);
    let probes = run_probes();
    println!(
        "  replica-hit read path: {} fabric ops across 64 reads",
        probes.replica_hit_fabric_ops
    );
    println!(
        "  span-granular read side: {} global reads per 16-entry catch-up, \
         {} per 8-publication combine",
        probes.catch_up_global_reads, probes.combine_global_reads
    );
    let (flat_claims, pod_claims) = run_numa_probe(if quick { 8 } else { 64 });
    println!(
        "  NUMA combiner placement: remote combiner claims flat={flat_claims} \
         pod={pod_claims} (delta {})",
        pod_claims - flat_claims
    );
    let mut report = probes.record(
        Report::new("sync", quick)
            .fact("nodes", NODES)
            .fact("rounds", cfg.rounds),
    );
    report.points = points;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_passes_its_own_gate() {
        let report = run(true);
        assert_eq!(report.rerun_failures(), Vec::<String>::new());
        assert_eq!(gate_failures(&report), Ok(Vec::new()));
    }

    #[test]
    fn report_roundtrips_and_checks() {
        let report = run(true);
        let json = report.to_json();
        let parsed = Report::parse(&json).expect("parse");
        assert_eq!(parsed, report);
        assert_eq!(
            parsed.points.len(),
            2 * WRITER_COUNTS.len() * READ_PCTS.len()
        );
        assert_eq!(parsed.facts.u64("rounds"), Ok(40));
        // A quick report fails the committed-report check on exactly
        // the quick flag.
        let failures = crate::suite::Suite::Sync.check(&json);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("--quick"));
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
    fn gate_rejects_a_per_entry_walk() {
        // Three reads per log entry, and three per publication header.
        let per_entry = Probes {
            replica_hit_fabric_ops: 0,
            catch_up_global_reads: 2 + 3 * (NODES * OPS_PER_PUB) as u64,
            combine_global_reads: 2 + 3 * NODES as u64,
        };
        // No sweep needed: only the probe failures are counted.
        let failures = gate_failures(&per_entry.record(Report::new("sync", true))).unwrap();
        let about_reads = failures.iter().filter(|f| f.contains("global reads"));
        assert_eq!(about_reads.count(), 2, "{failures:?}");
    }

    #[test]
    fn numa_probe_counts_remote_claims_only_on_the_pod() {
        let (flat, pod) = run_numa_probe(4);
        assert_eq!(flat, 0, "uniform home: no node is remote from the log");
        assert!(pod > 0, "interleaved pod: off-home combines are counted");
    }

    #[test]
    fn sweep_is_deterministic() {
        let (ops_a, ns_a) = super::run_point(SyncPolicy::NodeReplicated, 4, 50, 10);
        let (ops_b, ns_b) = super::run_point(SyncPolicy::NodeReplicated, 4, 50, 10);
        assert_eq!((ops_a, ns_a), (ops_b, ns_b));
    }
}
