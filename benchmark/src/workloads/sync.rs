//! `sync-writers`: one shared `SyncCell` under
//! `SyncPolicy::NodeReplicated` on an 8-node rack — the paper's core
//! mechanism in isolation.
//!
//! **Closed loop** in rounds. Every round all eight nodes publish a
//! 2-op batch (arrival order seeded), one seeded node combines the round
//! with a single log-tail CAS, the publishers poll their acknowledgement,
//! and the round's reads (a seeded 8 to 24 of them, 16 on average: 50 %
//! of the ops) land on the reader node, which catches its replica up once
//! (`sync_replica`) and serves them from it (`read_local`) — each
//! backend's natural idiom for a burst of reads against one snapshot, and
//! the shape of the committed `BENCH_sync.json` point this workload can
//! be checked against (8 writers, 50 % reads). Clocks are coupled the way
//! the protocol forces them: the combiner cannot start before the last
//! publication, a publisher cannot be acknowledged before the combine
//! ends. The baseline is the same op stream under
//! `SyncPolicy::Delegated` (`update` / `read`, one op at a time).
//!
//! Ops of a flat-combined round complete together, so they have no
//! latency of their own, and with exactly half the ops cheap reads the
//! median of per-call times would sit on the boundary between the two
//! populations. The latency sample is therefore **per round**: the
//! simulated ns charged to all nodes by the round's cell calls, divided
//! by the round's ops — the per-op cost the committed
//! `BENCH_sync.json` also reports, here with its distribution.

use super::{
    common_layers, fingerprint, median_secs, EndToEnd, Layers, RunConfig, MEASURED_SEGMENTS, NODES,
    SETUP_REPS,
};
use crate::counters::{snapshot, Delta};
use crate::stats::{segment_rate, summarize, Fold};
use crate::trace::{Span, Tracer};
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{Decoder, Encoder};
use flacos::FlacRack;
use rack_sim::{NodeCtx, RackConfig, SimError, SplitMix64};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OPS_PER_PUB: usize = 2;
const WRITES_PER_ROUND: usize = NODES * OPS_PER_PUB;
/// Reads per round are drawn uniformly from this range (mean 16 = the
/// writes per round), so the round's cost depends on the seed.
const READS_PER_ROUND: std::ops::RangeInclusive<u64> = 8..=24;
/// Rounds per segment at the reference `--seconds` (9 segments: 108 000
/// rounds, about 3.5 M ops).
const SEGMENT_ROUNDS: u64 = 12_000;
const BASELINE_ROUNDS: u64 = 12_000;
const GLOBAL_MEM: usize = 128 << 20;

/// The shared state: per-node tallies plus an order-sensitive digest of
/// the committed op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tally {
    counts: Vec<u64>,
    total: u64,
    digest: Fold,
}

impl Tally {
    fn new() -> Self {
        Tally {
            counts: vec![0; NODES],
            total: 0,
            digest: Fold::INIT,
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
            self.digest.push(u64::from(node) << 32 | amount);
        }
    }
}

fn tally_op(node: usize, amount: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(node as u32).put_u64(amount);
    e.into_vec()
}

/// One round's generated inputs.
struct Plan {
    /// Publication (arrival) order of the eight writers.
    order: [usize; NODES],
    combiner: usize,
    /// Amount carried by each writer's two ops.
    amounts: [[u64; OPS_PER_PUB]; NODES],
    reads: u64,
}

/// Node that serves every round's reads. One node, as in
/// `BENCH_sync.json`: a replica costs its node a replay of every
/// committed op, so where the reads land decides what they cost.
const READER: usize = NODES - 1;

fn plan(rng: &mut SplitMix64) -> Plan {
    let mut order: [usize; NODES] = std::array::from_fn(|i| i);
    for i in (1..NODES).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    let mut amounts = [[0u64; OPS_PER_PUB]; NODES];
    for a in amounts.iter_mut().flatten() {
        *a = 1 + rng.next_below(255);
    }
    Plan {
        order,
        combiner: rng.gen_index(NODES),
        amounts,
        reads: READS_PER_ROUND.start()
            + rng.next_below(READS_PER_ROUND.end() - READS_PER_ROUND.start() + 1),
    }
}

struct World {
    rack: FlacRack,
    cell: Arc<SyncCell<Tally>>,
    /// What the committed state must be (order-insensitive part).
    model_counts: [u64; NODES],
    boot: Duration,
}

fn setup(policy: SyncPolicy, log_slots: usize) -> Result<World, SimError> {
    let t = Instant::now();
    let rack = FlacRack::boot(RackConfig::n_node(NODES).with_global_mem(GLOBAL_MEM))?;
    let boot = t.elapsed();
    // The log is sized for the whole run and never collected, so the
    // final replay covers every committed op.
    let cell = SyncCell::alloc(
        rack.sim().global(),
        "sync_writers",
        SyncCellConfig::new(NODES, policy).with_log(log_slots, 48),
        Tally::new(),
    )?;
    Ok(World {
        rack,
        cell,
        model_counts: [0; NODES],
        boot,
    })
}

#[derive(Debug, Default)]
struct PhaseOut {
    /// One sample per round: charged simulated ns ÷ ops of the round.
    latencies: Vec<u64>,
    /// Ops of each round (16 writes + its reads).
    round_ops: Vec<u64>,
    failed: u64,
    marks_ns: Vec<u64>,
    after_warmup: Option<(rack_sim::StatsSnapshot, u64)>,
    sim_end_ns: u64,
}

/// Run one cell call on `node` inside a span, adding the simulated ns it
/// charged to `cost`.
fn charged<R>(
    tracer: &Tracer,
    span: Span,
    round: u64,
    node: &NodeCtx,
    cost: &mut u64,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = node.clock().now();
    let out = tracer.span(span, round, node.clock(), f);
    *cost += node.clock().now() - t0;
    out
}

/// Drive `rounds` rounds; with `segment_rounds > 0`, mark wall time at
/// every segment boundary.
fn run_rounds(
    w: &mut World,
    policy: SyncPolicy,
    rng: &mut SplitMix64,
    rounds: u64,
    segment_rounds: u64,
    tracer: &Tracer,
) -> Result<PhaseOut, SimError> {
    let mut out = PhaseOut {
        latencies: Vec::with_capacity(rounds as usize),
        ..PhaseOut::default()
    };
    let wall = Instant::now();
    if segment_rounds > 0 {
        out.marks_ns.push(0);
    }
    let nodes: Vec<_> = (0..NODES).map(|n| w.rack.sim().node(n)).collect();
    for round in 0..rounds {
        tracer.enter(round, 0);
        let p = plan(rng);
        tracer.exit(Span::Gen, 0);
        // A round starts when every node has finished the previous one.
        let start = w.rack.sim().max_time_ns();
        for n in &nodes {
            n.clock().advance_to(start);
        }

        // Simulated ns the round's cell calls charge, over all nodes.
        let mut cost = 0u64;
        if policy == SyncPolicy::NodeReplicated {
            for &wr in &p.order {
                let node = &nodes[wr];
                let ops = p.amounts[wr].map(|a| tally_op(wr, a));
                let refs: Vec<&[u8]> = ops.iter().map(Vec::as_slice).collect();
                charged(tracer, Span::SyncPublish, round, node, &mut cost, || {
                    w.cell.nr_publish_batch(node, &refs)
                })?;
            }
            let combiner = &nodes[p.combiner];
            combiner.clock().advance_to(w.rack.sim().max_time_ns());
            let combined = charged(
                tracer,
                Span::SyncCombine,
                round,
                combiner,
                &mut cost,
                || w.cell.nr_combine(combiner),
            )?;
            if combined != WRITES_PER_ROUND as u64 {
                out.failed += WRITES_PER_ROUND as u64;
            }
            let combine_end = combiner.clock().now();
            for &wr in &p.order {
                let node = &nodes[wr];
                node.clock().advance_to(combine_end);
                let landed = charged(tracer, Span::SyncPoll, round, node, &mut cost, || {
                    w.cell.nr_poll(node)
                })?;
                if landed.is_none() {
                    out.failed += OPS_PER_PUB as u64;
                }
            }
        } else {
            for &wr in &p.order {
                let node = &nodes[wr];
                for a in p.amounts[wr] {
                    charged(tracer, Span::SyncUpdate, round, node, &mut cost, || {
                        w.cell.update(node, &tally_op(wr, a))
                    })?;
                }
            }
        }
        for (wr, amounts) in p.amounts.iter().enumerate() {
            w.model_counts[wr] += amounts.iter().sum::<u64>();
        }
        let model_total: u64 = w.model_counts.iter().sum();

        // The round's reads see the round's committed writes.
        let node = &nodes[READER];
        if policy == SyncPolicy::NodeReplicated {
            charged(tracer, Span::SyncReplica, round, node, &mut cost, || {
                w.cell.sync_replica(node)
            })?;
        }
        for i in 0..p.reads {
            // Each read looks at the total and one node's tally.
            let about = i as usize % NODES;
            let view = |t: &Tally| (t.total, t.counts[about]);
            let got = if policy == SyncPolicy::NodeReplicated {
                charged(tracer, Span::SyncReadLocal, round, node, &mut cost, || {
                    w.cell.read_local(node, view)
                })?
            } else {
                charged(tracer, Span::SyncRead, round, node, &mut cost, || {
                    w.cell.read(node, view)
                })?
            };
            let ok = tracer.span(Span::Oracle, round, node.clock(), || {
                got == (model_total, w.model_counts[about])
            });
            if !ok {
                out.failed += 1;
            }
        }
        let round_ops = WRITES_PER_ROUND as u64 + p.reads;
        out.latencies.push(cost / round_ops);
        out.round_ops.push(round_ops);

        if segment_rounds > 0 && (round + 1) % segment_rounds == 0 {
            out.marks_ns.push(wall.elapsed().as_nanos() as u64);
            if round + 1 == segment_rounds {
                out.after_warmup = Some((snapshot(w.rack.sim()), w.rack.sim().max_time_ns()));
            }
        }
    }
    out.sim_end_ns = w.rack.sim().max_time_ns();
    Ok(out)
}

/// Final-state oracle: authoritative state == full log replay == every
/// caught-up replica == the model's tallies.
fn check_final_state(w: &World, policy: SyncPolicy, violations: &mut Vec<String>) {
    let n0 = w.rack.sim().node(0);
    let state = w.cell.peek(Tally::clone);
    if state.counts != w.model_counts {
        violations.push("final state differs from the model's tallies".into());
    }
    match w.cell.replay(&n0, Tally::new()) {
        Ok((replayed, _)) if replayed == state => {}
        Ok(_) => violations.push("replay() differs from the final state".into()),
        Err(e) => violations.push(format!("replay() failed: {e}")),
    }
    if policy == SyncPolicy::NodeReplicated {
        for n in 0..NODES {
            let node = w.rack.sim().node(n);
            let replica = w
                .cell
                .sync_replica(&node)
                .and_then(|_| w.cell.read_local(&node, Tally::clone));
            if replica.as_ref() != Ok(&state) {
                violations.push(format!("node {n}'s caught-up replica differs"));
            }
        }
    }
}

fn log_slots(rounds: u64) -> usize {
    (rounds as usize) * WRITES_PER_ROUND + 1_024
}

/// The generator of the run's op stream; the baseline and the untraced
/// pass of the traced run replay the same one.
fn op_stream(cfg: &RunConfig) -> SplitMix64 {
    SplitMix64::new(cfg.seed ^ 0x5C_0A11)
}

pub fn run_end_to_end(cfg: &RunConfig) -> Result<EndToEnd, SimError> {
    let segment_rounds = cfg.scaled(SEGMENT_ROUNDS);
    let rounds = segment_rounds * (MEASURED_SEGMENTS + 1);
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(SyncPolicy::NodeReplicated, log_slots(rounds))?);
        setups.push(t.elapsed());
    }
    let mut w = world.expect("SETUP_REPS > 0");
    let mut violations = Vec::new();

    let mut rng = op_stream(cfg);
    let phase = run_rounds(
        &mut w,
        SyncPolicy::NodeReplicated,
        &mut rng,
        rounds,
        segment_rounds,
        &Tracer::off(),
    )?;
    let (warm_snap, warm_sim) = phase.after_warmup.clone().expect("warm-up boundary");
    let delta = Delta::between(&warm_snap, &snapshot(w.rack.sim()));
    let measured = &phase.latencies[segment_rounds as usize..];
    let ops: u64 = phase.round_ops[segment_rounds as usize..].iter().sum();
    let latency = summarize(measured);
    if !latency.supported {
        violations.push(format!("p99 from only {} samples", latency.samples));
    }
    let sim_ops_per_s = ops as f64 * 1e9 / (phase.sim_end_ns - warm_sim).max(1) as f64;
    check_final_state(&w, SyncPolicy::NodeReplicated, &mut violations);
    drop(w);
    // Segments hold equal numbers of rounds; rounds differ a little in
    // ops, so the ops rate is the rounds rate times the mean round.
    let mut host = segment_rate(&phase.marks_ns, segment_rounds);
    host.median *= ops as f64 / measured.len() as f64;

    // Baseline: the same op stream under delegation.
    let base_rounds = cfg.scaled(BASELINE_ROUNDS);
    let mut base_world = setup(SyncPolicy::Delegated, log_slots(base_rounds))?;
    let mut rng = op_stream(cfg);
    let base = run_rounds(
        &mut base_world,
        SyncPolicy::Delegated,
        &mut rng,
        base_rounds,
        0,
        &Tracer::off(),
    )?;
    check_final_state(&base_world, SyncPolicy::Delegated, &mut violations);
    let baseline_p50_ns = summarize(&base.latencies).p50;

    Ok(EndToEnd {
        latency,
        sim_ops_per_s,
        sim_slo_ops_per_s: sim_ops_per_s,
        sim_fabric_ops_per_op: delta.fabric_ops() as f64 / ops as f64,
        sim_bytes_moved_per_op: delta.bytes_moved() as f64 / ops as f64,
        baseline_speedup: baseline_p50_ns as f64 / latency.p50 as f64,
        baseline_p50_ns,
        host,
        setup_s: median_secs(&setups),
        attempted: phase.round_ops.iter().chain(&base.round_ops).sum(),
        failed: phase.failed + base.failed,
        fingerprint: fingerprint(measured, &delta, &[baseline_p50_ns]),
        notes: vec![format!(
            "closed loop: {} rounds of 8 writers x 2-op batches + 8..=24 reads; \
             baseline Delegated over the first {} rounds of the same stream",
            rounds, base_rounds
        )],
        violations,
    })
}

pub fn run_layers(cfg: &RunConfig) -> Result<Layers, SimError> {
    let segment_rounds = (cfg.scaled(SEGMENT_ROUNDS) / 4).max(1);
    let rounds = segment_rounds * (MEASURED_SEGMENTS + 1);
    let writes = rounds * WRITES_PER_ROUND as u64;

    let mut plain = setup(SyncPolicy::NodeReplicated, log_slots(rounds))?;
    let mut rng = op_stream(cfg);
    let t = Instant::now();
    run_rounds(
        &mut plain,
        SyncPolicy::NodeReplicated,
        &mut rng,
        rounds,
        0,
        &Tracer::off(),
    )?;
    let untraced_wall = t.elapsed();
    drop(plain);

    let mut w = setup(SyncPolicy::NodeReplicated, log_slots(rounds))?;
    let tracer = Tracer::on();
    let mut rng = op_stream(cfg);
    let before = snapshot(w.rack.sim());
    tracer.enter(0, 0);
    let phase = run_rounds(
        &mut w,
        SyncPolicy::NodeReplicated,
        &mut rng,
        rounds,
        0,
        &tracer,
    )?;
    tracer.exit(Span::Driver, phase.sim_end_ns);
    let delta = Delta::between(&before, &snapshot(w.rack.sim()));
    let trace = tracer.report();
    let ops: u64 = phase.round_ops.iter().sum();
    let reads = ops - writes;

    let (mut v, mut violations) = common_layers(
        &trace,
        &delta,
        ops,
        untraced_wall,
        w.boot,
        &[
            crate::trace::Layer::RedisMini,
            crate::trace::Layer::FlacosIpc,
        ],
        "sync-writers",
    );
    check_final_state(&w, SyncPolicy::NodeReplicated, &mut violations);
    let update = trace.sum(&[Span::SyncPublish, Span::SyncCombine, Span::SyncPoll]);
    let read = trace.sum(&[Span::SyncReplica, Span::SyncReadLocal]);
    v.set(
        "flacdk.sync_update_sim_ns_per_op",
        update.sim_total_ns as f64 / writes as f64,
    );
    v.set(
        "flacdk.sync_update_host_ns_per_op",
        update.host_total_ns as f64 / writes as f64,
    );
    v.set(
        "flacdk.sync_read_local_sim_ns_per_op",
        read.sim_total_ns as f64 / reads as f64,
    );
    v.set(
        "flacdk.nr_ops_per_combine",
        writes as f64 / trace.of(Span::SyncCombine).count as f64,
    );
    v.set(
        "flacdk.atomics_per_update",
        delta.global_atomics as f64 / writes as f64,
    );
    Ok(Layers {
        values: v,
        attempted: ops,
        failed: phase.failed,
        trace,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_exactly_and_both_policies_agree_on_the_state() {
        let run = |policy| {
            let mut w = setup(policy, log_slots(20)).unwrap();
            let mut rng = SplitMix64::new(7);
            let out = run_rounds(&mut w, policy, &mut rng, 20, 0, &Tracer::off()).unwrap();
            assert_eq!(out.failed, 0);
            assert_eq!(out.latencies.len(), 20);
            assert!(out.round_ops.iter().all(|&n| (24..=40).contains(&n)));
            let mut violations = Vec::new();
            check_final_state(&w, policy, &mut violations);
            assert_eq!(violations, Vec::<String>::new());
            (out.latencies, w.cell.peek(|t| t.counts.clone()))
        };
        let (nr_a, counts_a) = run(SyncPolicy::NodeReplicated);
        let (nr_b, _) = run(SyncPolicy::NodeReplicated);
        assert_eq!(nr_a, nr_b, "same seed, same latency stream");
        let (_, counts_d) = run(SyncPolicy::Delegated);
        assert_eq!(counts_a, counts_d, "same op stream, same committed tallies");
    }
}
