//! `recover-node-crash`: a long-lived 8-node rack with 16 fault-boxed,
//! checkpoint-protected apps, an attached `SyncCell` and an attached
//! `ChunkStore`, crashed one node at a time.
//!
//! **Closed loop**, one cycle = one op: the victim's apps commit a new
//! state version (acknowledged by a checkpoint refresh) and then scribble
//! an unacknowledged one; every live node commits a cell op and the
//! victim leaves one publication stranded and four chunk claims in
//! flight; the node crashes; the least-loaded survivor runs
//! `RecoveryOrchestrator::handle_node_crash`; every adopted app performs
//! its first post-recovery op (read back the acknowledged state, commit
//! the next version); the survivor finishes the orphaned chunk fetch;
//! the node restarts empty and becomes the next adoption target. The
//! latency of a cycle runs from the crash to the last adopted app's
//! first successful op.
//!
//! Baseline: the same cycles with all 16 apps in one failure domain (one
//! home node), so every crash re-homes and restores every app —
//! ablation A3's whole-node comparison.

use super::{
    common_layers, fingerprint, median_secs, EndToEnd, Layers, RunConfig, MEASURED_SEGMENTS, NODES,
    SETUP_REPS,
};
use crate::counters::{snapshot, Delta};
use crate::stats::{segment_rate, summarize, Fold};
use crate::trace::{Layer as TraceLayer, Span, Tracer};
use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig, CHUNK_SIZE};
use flacdk::reliability::checkpoint::CheckpointManager;
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacos::FlacRack;
use flacos_fault::fault_box::FaultBoxBuilder;
use flacos_fault::recovery::RecoveryOrchestrator;
use flacos_fault::redundancy::{Protection, RedundancyPolicy};
use flacos_mem::dedup::PageDeduper;
use rack_sim::{NodeCtx, NodeId, RackConfig, SimError, SplitMix64, StatsSnapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};

const APPS: u64 = 16;
const HEAP_PAGES: usize = 2;
const STATE_BYTES: usize = 64;
/// Chunks the victim claims and leaves in flight each cycle.
const CLAIMS_PER_CYCLE: usize = 4;
/// Cycles per segment at the reference `--seconds` (9 segments), and the
/// fewest whatever `--seconds` says: p99 needs 1 000 measured cycles.
const SEGMENT_CYCLES: u64 = 300;
const MIN_SEGMENT_CYCLES: u64 = 125;
const BASELINE_CYCLES: u64 = 400;
/// Shared logs are collected this often (they are rings).
const GC_EVERY: u64 = 32;
const GLOBAL_MEM: usize = 192 << 20;

/// The attached cell's state: a running total and op count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Ledger {
    total: u64,
    ops: u64,
}

impl SyncState for Ledger {
    fn apply(&mut self, op: &[u8]) {
        if let Ok(bytes) = <[u8; 8]>::try_from(op) {
            self.total += u64::from_le_bytes(bytes);
            self.ops += 1;
        }
    }
}

/// An app's whole state: id, version and a digest, padded to 64 bytes.
fn app_state(app: u64, version: u64) -> [u8; STATE_BYTES] {
    let mut f = Fold::INIT;
    f.push(app);
    f.push(version);
    let mut s = [0xA5u8; STATE_BYTES];
    s[..8].copy_from_slice(&app.to_le_bytes());
    s[8..16].copy_from_slice(&version.to_le_bytes());
    s[16..24].copy_from_slice(&f.0.to_le_bytes());
    s
}

struct World {
    rack: FlacRack,
    orch: RecoveryOrchestrator,
    cell: Arc<SyncCell<Ledger>>,
    store: Arc<ChunkStore>,
    backends: Arc<ShardedBackends>,
    /// Content hashes of the chunk pool, `CLAIMS_PER_CYCLE` per cycle.
    chunk_pool: Vec<u64>,
    /// Last acknowledged version of each app.
    acked: Vec<u64>,
    /// What the cell's total must be.
    ledger_total: u64,
    ledger_ops: u64,
    boot: Duration,
}

fn setup(seed: u64, cycles: u64, single_domain: bool) -> Result<World, SimError> {
    let t = Instant::now();
    let rack = FlacRack::boot(RackConfig::n_node(NODES).with_global_mem(GLOBAL_MEM))?;
    let boot = t.elapsed();
    let global = rack.sim().global();

    let mut orch = RecoveryOrchestrator::new();
    let mut acked = Vec::new();
    for app in 0..APPS {
        // Two apps per node; in the single-domain baseline all on node 0.
        let home = rack.sim().node(if single_domain {
            0
        } else {
            app as usize % NODES
        });
        let fbox = FaultBoxBuilder::new(app)
            .stack_pages(1)
            .heap_pages(HEAP_PAGES)
            .build(
                &home,
                global,
                rack.alloc().clone(),
                rack.frames(),
                rack.epochs().clone(),
            )?;
        fbox.space()
            .write(&home, fbox.heap_va(0), &app_state(app, 0))?;
        let protection = Protection::new(
            RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 },
            CheckpointManager::new(rack.alloc().clone(), rack.epochs().clone()),
        );
        orch.register(&home, fbox, protection)?;
        acked.push(0);
    }

    let cell = SyncCell::alloc(
        global,
        "recover_ledger",
        SyncCellConfig::new(NODES, SyncPolicy::NodeReplicated),
        Ledger::default(),
    )?;
    orch.attach_sync(cell.clone());

    let backends = Arc::new(ShardedBackends::uniform(
        2,
        BackendConfig {
            bandwidth_bytes_per_sec: 1_000_000_000,
            per_request_ns: 10_000,
            per_chunk_ns: 1_000,
        },
    ));
    let mut rng = SplitMix64::new(seed ^ 0xC4_0C);
    let mut chunk_pool = Vec::with_capacity(cycles as usize * CLAIMS_PER_CYCLE);
    for _ in 0..cycles as usize * CLAIMS_PER_CYCLE {
        let mut page = vec![0u8; CHUNK_SIZE];
        rng.fill_bytes(&mut page[..64]);
        chunk_pool.push(flac_store::chunk_hash(&page));
        backends.publish(page);
    }
    let store = ChunkStore::alloc(
        global,
        backends.clone(),
        Arc::new(PageDeduper::new(rack.frames().clone())),
        StoreConfig::new(NODES),
    )?;
    orch.attach_sync(store.clone());

    Ok(World {
        rack,
        orch,
        cell,
        store,
        backends,
        chunk_pool,
        acked,
        ledger_total: 0,
        ledger_ops: 0,
        boot,
    })
}

#[derive(Debug, Default)]
struct PhaseOut {
    /// Recovery latency per cycle, simulated ns.
    latencies: Vec<u64>,
    failed: u64,
    marks_ns: Vec<u64>,
    after_warmup: Option<(StatsSnapshot, u64)>,
    sim_end_ns: u64,
    adopted_apps: u64,
    /// Bytes the adopter copied inside `handle_node_crash`.
    restored_bytes: u64,
    first_op_sim_ns: u64,
}

/// Commit `version` as `app`'s state from `node`; with `ack`, refresh the
/// detector baseline and the checkpoint (the acknowledgement).
fn app_commit(
    w: &mut World,
    node: &Arc<NodeCtx>,
    app: u64,
    version: u64,
    ack: bool,
    cycle: u64,
    tracer: &Tracer,
) -> Result<(), SimError> {
    let fbox = w.orch.fault_box(app).expect("registered app");
    let va = fbox.heap_va(0);
    tracer.span(Span::AppWrite, cycle, node.clock(), || {
        fbox.space().write(node, va, &app_state(app, version))
    })?;
    if ack {
        tracer.span(Span::FaultRefresh, cycle, node.clock(), || {
            w.orch.refresh(node, app)
        })?;
        w.acked[app as usize] = version;
    }
    Ok(())
}

fn homes(w: &World) -> Vec<NodeId> {
    (0..APPS)
        .map(|app| w.orch.fault_box(app).expect("registered app").home())
        .collect()
}

fn run_cycles(
    w: &mut World,
    rng: &mut SplitMix64,
    cycles: u64,
    segment_cycles: u64,
    tracer: &Tracer,
) -> Result<PhaseOut, SimError> {
    let mut out = PhaseOut::default();
    let wall = Instant::now();
    if segment_cycles > 0 {
        out.marks_ns.push(0);
    }
    let sim = w.rack.sim().clone();
    for cycle in 0..cycles {
        // Plan: crash a node that hosts apps; the least-loaded survivor
        // adopts (ties to the lowest id).
        tracer.enter(cycle, 0);
        let homes = homes(w);
        let load = |n: usize| homes.iter().filter(|h| h.0 == n).count();
        let hosting: Vec<usize> = (0..NODES).filter(|&n| load(n) > 0).collect();
        let victim_idx = hosting[rng.gen_index(hosting.len())];
        let adopter_idx = (0..NODES)
            .filter(|&n| n != victim_idx)
            .min_by_key(|&n| load(n))
            .expect("a survivor exists");
        let amounts: [u64; NODES] = std::array::from_fn(|_| 1 + rng.next_below(1_000));
        let stranded = 1 + rng.next_below(1_000);
        tracer.exit(Span::Gen, 0);
        let (victim, adopter) = (sim.node(victim_idx), sim.node(adopter_idx));
        let victims: Vec<u64> = (0..APPS)
            .filter(|&a| homes[a as usize].0 == victim_idx)
            .collect();

        // Before the crash: acknowledged app commits, then an
        // unacknowledged scribble the rollback must undo.
        for &app in &victims {
            let next = w.acked[app as usize] + 1;
            app_commit(w, &victim, app, next, true, cycle, tracer)?;
            app_commit(w, &victim, app, next + 1_000_000, false, cycle, tracer)?;
        }
        // Every node commits a cell op; the victim strands one more.
        for (n, &amount) in amounts.iter().enumerate() {
            let node = sim.node(n);
            tracer.span(Span::SyncUpdate, cycle, node.clock(), || {
                w.cell.update(&node, &amount.to_le_bytes())
            })?;
            w.ledger_total += amount;
            w.ledger_ops += 1;
        }
        tracer.span(Span::SyncPublish, cycle, victim.clock(), || {
            w.cell.nr_publish(&victim, &stranded.to_le_bytes())
        })?;
        // Recovery must drain the stranded publication: nothing
        // published is lost, nothing is applied twice.
        w.ledger_total += stranded;
        w.ledger_ops += 1;
        // The victim claims chunks and dies before fetching them.
        let base = cycle as usize * CLAIMS_PER_CYCLE;
        let claims: Vec<u64> = w.chunk_pool[base..base + CLAIMS_PER_CYCLE].to_vec();
        let claimed = tracer.span(Span::StoreClaim, cycle, victim.clock(), || {
            w.store.claim(&victim, &claims)
        })?;
        if claimed.won.len() != CLAIMS_PER_CYCLE {
            out.failed += 1;
        }

        // The crash.
        let crash_at = victim.clock().now().max(adopter.clock().now());
        sim.faults().crash_node(victim.id(), crash_at);
        adopter.clock().advance_to(crash_at);

        let copied_before = adopter.stats().snapshot().bytes_copied;
        let rehomed = tracer.span(Span::HandleCrash, cycle, adopter.clock(), || {
            w.orch.handle_node_crash(&adopter, victim.id())
        })?;
        out.restored_bytes += adopter.stats().snapshot().bytes_copied - copied_before;
        let mut cycle_ok = rehomed == victims;

        // First successful op of every adopted app: the acknowledged
        // state is back (the scribble is gone), and the next version
        // commits.
        let first_ops_start = adopter.clock().now();
        for &app in &victims {
            let fbox = w.orch.fault_box(app).expect("registered app");
            let mut buf = [0u8; STATE_BYTES];
            tracer.span(Span::AppRead, cycle, adopter.clock(), || {
                fbox.space().read(&adopter, fbox.heap_va(0), &mut buf)
            })?;
            let expected = app_state(app, w.acked[app as usize]);
            cycle_ok &= tracer.span(Span::Oracle, cycle, adopter.clock(), || buf == expected);
            let next = w.acked[app as usize] + 1;
            app_commit(w, &adopter, app, next, true, cycle, tracer)?;
        }
        let recovered_at = adopter.clock().now();
        out.first_op_sim_ns += recovered_at - first_ops_start;
        out.latencies.push(recovered_at - crash_at);
        out.adopted_apps += victims.len() as u64;

        // After the heal: no claim is left in flight, the survivor
        // finishes the orphaned fetch (each chunk shipped exactly once),
        // and the cell holds every op, the stranded one included.
        let healed = w.store.peek_index(|s| s.fetching_count()) == 0;
        let ensured = tracer.span(Span::StoreEnsure, cycle, adopter.clock(), || {
            w.store.ensure(&adopter, &claims)
        })?;
        let ledger = tracer.span(Span::SyncRead, cycle, adopter.clock(), || {
            w.cell.read(&adopter, Ledger::clone)
        })?;
        cycle_ok &= tracer.span(Span::Oracle, cycle, adopter.clock(), || {
            healed
                && ensured.fetched == CLAIMS_PER_CYCLE as u64
                && claims.iter().all(|&h| w.backends.fetch_count(h) == 1)
                && ledger.total == w.ledger_total
                && ledger.ops == w.ledger_ops
        });
        if !cycle_ok {
            out.failed += 1;
        }

        // The node comes back empty and rejoins.
        let back_at = adopter.clock().now();
        sim.faults().restart_node(victim.id(), back_at);
        victim.clock().advance_to(back_at);
        if (cycle + 1) % GC_EVERY == 0 {
            w.cell.gc(&adopter)?;
            w.store.gc(&adopter)?;
        }

        if segment_cycles > 0 && (cycle + 1) % segment_cycles == 0 {
            out.marks_ns.push(wall.elapsed().as_nanos() as u64);
            if cycle + 1 == segment_cycles {
                out.after_warmup = Some((snapshot(&sim), sim.max_time_ns()));
            }
        }
    }
    out.sim_end_ns = sim.max_time_ns();
    Ok(out)
}

/// The generator of the run's op stream; the baseline and the untraced
/// pass of the traced run replay the same one.
fn op_stream(cfg: &RunConfig) -> SplitMix64 {
    SplitMix64::new(cfg.seed ^ 0xC4A5_4ED0)
}

pub fn run_end_to_end(cfg: &RunConfig) -> Result<EndToEnd, SimError> {
    let segment_cycles = cfg.scaled(SEGMENT_CYCLES).max(MIN_SEGMENT_CYCLES);
    let cycles = segment_cycles * (MEASURED_SEGMENTS + 1);
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(cfg.seed, cycles, false)?);
        setups.push(t.elapsed());
    }
    let mut w = world.expect("SETUP_REPS > 0");
    let mut violations = Vec::new();

    let mut rng = op_stream(cfg);
    let phase = run_cycles(&mut w, &mut rng, cycles, segment_cycles, &Tracer::off())?;
    let (warm_snap, warm_sim) = phase.after_warmup.clone().expect("warm-up boundary");
    let delta = Delta::between(&warm_snap, &snapshot(w.rack.sim()));
    let measured = &phase.latencies[segment_cycles as usize..];
    let ops = measured.len() as u64;
    let latency = summarize(measured);
    if !latency.supported {
        violations.push(format!("p99 from only {} samples", latency.samples));
    }
    let sim_ops_per_s = ops as f64 * 1e9 / (phase.sim_end_ns - warm_sim).max(1) as f64;
    drop(w);

    // Baseline: one failure domain, every crash restores every app.
    let base_cycles = cfg.scaled(BASELINE_CYCLES);
    let mut base_world = setup(cfg.seed, base_cycles, true)?;
    let mut rng = op_stream(cfg);
    let base = run_cycles(&mut base_world, &mut rng, base_cycles, 0, &Tracer::off())?;
    let baseline_p50_ns = summarize(&base.latencies).p50;

    Ok(EndToEnd {
        latency,
        sim_ops_per_s,
        sim_slo_ops_per_s: sim_ops_per_s,
        sim_fabric_ops_per_op: delta.fabric_ops() as f64 / ops as f64,
        sim_bytes_moved_per_op: delta.bytes_moved() as f64 / ops as f64,
        baseline_speedup: baseline_p50_ns as f64 / latency.p50 as f64,
        baseline_p50_ns,
        host: segment_rate(&phase.marks_ns, segment_cycles),
        setup_s: median_secs(&setups),
        attempted: cycles + base_cycles,
        failed: phase.failed + base.failed,
        fingerprint: fingerprint(measured, &delta, &[baseline_p50_ns]),
        notes: vec![format!(
            "closed loop: {cycles} crash cycles, {:.2} apps adopted per cycle; baseline \
             (all {APPS} apps in one failure domain) over {base_cycles} cycles",
            phase.adopted_apps as f64 / cycles as f64
        )],
        violations,
    })
}

pub fn run_layers(cfg: &RunConfig) -> Result<Layers, SimError> {
    let segment_cycles = (cfg.scaled(SEGMENT_CYCLES) / 4).max(1);
    let cycles = segment_cycles * (MEASURED_SEGMENTS + 1);

    let mut plain = setup(cfg.seed, cycles, false)?;
    let mut rng = op_stream(cfg);
    let t = Instant::now();
    run_cycles(&mut plain, &mut rng, cycles, 0, &Tracer::off())?;
    let untraced_wall = t.elapsed();
    drop(plain);

    let mut w = setup(cfg.seed, cycles, false)?;
    let tracer = Tracer::on();
    let mut rng = op_stream(cfg);
    let before = snapshot(w.rack.sim());
    tracer.enter(0, 0);
    let phase = run_cycles(&mut w, &mut rng, cycles, 0, &tracer)?;
    tracer.exit(Span::Driver, phase.sim_end_ns);
    let delta = Delta::between(&before, &snapshot(w.rack.sim()));
    let trace = tracer.report();

    let (mut v, violations) = common_layers(
        &trace,
        &delta,
        cycles,
        untraced_wall,
        w.boot,
        &[
            TraceLayer::RedisMini,
            TraceLayer::FlacosIpc,
            TraceLayer::Serverless,
        ],
        "recover-node-crash",
    );
    let per_cycle = |x: u64| x as f64 / cycles as f64;
    let crash = trace.of(Span::HandleCrash);
    v.set(
        "flacos-fault.handle_crash_sim_ns",
        per_cycle(crash.sim_total_ns),
    );
    v.set(
        "flacos-fault.handle_crash_host_ns",
        per_cycle(crash.host_total_ns),
    );
    v.set(
        "flacos-fault.first_op_after_sim_ns",
        per_cycle(phase.first_op_sim_ns),
    );
    v.set(
        "flacos-fault.restored_bytes_per_op",
        per_cycle(phase.restored_bytes),
    );
    v.set(
        "flacos-fault.boxes_recovered_per_op",
        per_cycle(phase.adopted_apps),
    );
    v.set(
        "flacos-fault.reelections_per_op",
        per_cycle(delta.counter("fault_box", "reelections")),
    );
    // Second-order here: the attached cell's commits and the log drain.
    let update = trace.of(Span::SyncUpdate);
    v.set(
        "flacdk.sync_update_sim_ns_per_op",
        update.sim_total_ns as f64 / update.count.max(1) as f64,
    );
    v.set(
        "flacdk.sync_update_host_ns_per_op",
        update.host_total_ns as f64 / update.count.max(1) as f64,
    );
    let stats = w.store.stats();
    v.set(
        "flac-store.chunks_fetched_per_op",
        per_cycle(stats.chunks_fetched),
    );
    v.set(
        "flac-store.bytes_fetched_per_op",
        per_cycle(stats.bytes_fetched),
    );
    Ok(Layers {
        values: v,
        attempted: cycles,
        failed: phase.failed,
        trace,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_lose_nothing_and_repeat_exactly() {
        let run = |single_domain| {
            let mut w = setup(3, 12, single_domain).unwrap();
            let mut rng = SplitMix64::new(11);
            let out = run_cycles(&mut w, &mut rng, 12, 0, &Tracer::off()).unwrap();
            assert_eq!(out.failed, 0);
            assert_eq!(out.latencies.len(), 12);
            (out.latencies, out.adopted_apps)
        };
        let (a, adopted) = run(false);
        assert_eq!(run(false).0, a, "same seed, same recovery latencies");
        assert!(adopted >= 12, "every cycle adopts at least one app");
        let (whole_node, adopted_all) = run(true);
        assert_eq!(adopted_all, 12 * APPS, "one domain: every crash takes all");
        assert!(
            whole_node.iter().sum::<u64>() > a.iter().sum::<u64>(),
            "restoring every app costs more than restoring the victim's"
        );
    }
}
