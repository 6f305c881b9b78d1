//! The `flac-faultstorm` campaign harness: seeded rack-wide fault
//! storms driven against a fully booted FlacOS stack, with
//! cross-subsystem invariant checking.
//!
//! Each campaign boots a 4-node [`FlacRack`], spreads real work across
//! the subsystems (journaled file writes, message-fabric RPCs with
//! retry, fault-boxed applications, dirty cache lines awaiting
//! writeback), and lets a [`StormCampaign`] crash nodes, sever links,
//! and poison memory underneath it. The reaction layer exercises the
//! recovery paths this PR hardens — RPC retry-with-backoff, fault-box
//! re-election, journal replay on restart — and after the storm heals,
//! [`run_campaign`] checks the invariants the paper's reliability story
//! rests on:
//!
//! 1. **No lost committed writes** — every file write acknowledged to
//!    the workload is readable with its exact content, and every dirty
//!    scratch line that was explicitly written back survives in global
//!    memory.
//! 2. **No double-delivery** — the RPC server executed every
//!    acknowledged call exactly once (duplicate suppression absorbs
//!    retries; executions never exceed issued call ids).
//! 3. **Liveness after recovery** — once healed, every node can write
//!    and read the shared file system, the RPC path answers, and every
//!    fault-boxed application's state is intact on its (possibly
//!    re-elected) home.
//!
//! Everything derives from the campaign seed, so the storm's event log
//! is byte-identical across runs — the replay property asserted in this
//! module's tests and checked by `flac-faultstorm --verify`.

use flacdk::reliability::checkpoint::CheckpointManager;
use flacos::FlacRack;
use flacos_fault::fault_box::FaultBoxBuilder;
use flacos_fault::recovery::RecoveryOrchestrator;
use flacos_fault::redundancy::{Protection, RedundancyPolicy};
use flacos_fs::memfs::MemFs;
use flacos_ipc::{MsgRpcClient, MsgRpcServer, RetryPolicy};
use flacos_mem::addr::VirtAddr;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::tlb::Tlb;
use flacos_mem::{AddressSpace, PhysFrame, Pte};
use flacos_tier::{LocalFramePool, Migration};
use rack_sim::storm::{StormCampaign, StormConfig, StormCounts, StormOp};
use rack_sim::{GAddr, NodeId, RackConfig, SimError};

/// Nodes in every campaign rack.
const NODES: usize = 4;
/// The node hosting the message-fabric RPC server.
const SERVER_NODE: usize = 1;
/// RPC request port / base reply port.
const RPC_PORT: u16 = 40;
const REPLY_PORT_BASE: u16 = 50;
/// Scrub-region geometry (the storm's poison target).
const SCRUB_WORDS: usize = 64;
/// Known-good pattern word `i` of the scrub region holds.
const SCRUB_PATTERN: u64 = 0xC0DE_F1AC_0000_0000;
/// Fault-boxed applications and their initial homes.
const APP_HOMES: [usize; 2] = [2, 3];

/// Outcome of one campaign: per-subsystem survival counters, the
/// deterministic event log, and any invariant violations.
#[derive(Debug, Clone)]
pub struct SurvivalReport {
    /// The seed the campaign ran from.
    pub seed: u64,
    /// Per-class storm operation counts.
    pub counts: StormCounts,
    /// Total executed steps (heal steps included).
    pub events: usize,
    /// File writes acknowledged (journaled + page cache) / attempts that
    /// degraded gracefully.
    pub fs_commits: u64,
    /// File-system operations that failed under faults (not violations:
    /// they were never acknowledged).
    pub fs_degraded: u64,
    /// Journal replays performed on node restart.
    pub fs_replays: u64,
    /// Journal entries replayed across all restarts.
    pub fs_entries_replayed: u64,
    /// RPC calls acknowledged to the client.
    pub rpc_acked: u64,
    /// RPC calls abandoned after retry exhaustion or a down server.
    pub rpc_degraded: u64,
    /// Distinct calls the server handler actually executed.
    pub rpc_executed: u64,
    /// Retried requests answered from the server's reply cache.
    pub rpc_dup_suppressed: u64,
    /// Call ids issued by clients.
    pub rpc_issued: u64,
    /// Dirty scratch lines explicitly written back (committed).
    pub scratch_flushed: u64,
    /// Dirty scratch lines lost to a crash before writeback (expected
    /// crash semantics, not violations).
    pub scratch_lost: u64,
    /// Poisoned words scrubbed and repaired.
    pub scrubs: u64,
    /// Fault boxes re-elected onto a surviving node.
    pub reelections: u64,
    /// Invariant violations (empty on a surviving campaign).
    pub violations: Vec<String>,
    /// The byte-identical replay artifact.
    pub log_text: String,
    /// The merged rack metrics after the campaign.
    pub metrics: rack_sim::RackReport,
}

impl SurvivalReport {
    /// Whether every invariant held.
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }

    /// One summary row for the survival table.
    pub fn row(&self) -> String {
        format!(
            "{:#018x} | {:>5} | {:>2}/{:<2} | {:>4}/{:<4} | {:>4}/{:<4} | {:>3} | {:>3} | {:>3} | {}",
            self.seed,
            self.events,
            self.counts.crashes,
            self.counts.restarts,
            self.fs_commits,
            self.fs_degraded,
            self.rpc_acked,
            self.rpc_degraded,
            self.fs_replays,
            self.reelections,
            self.scrubs,
            if self.survived() {
                "ok".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }

    /// Header matching [`SurvivalReport::row`].
    pub fn header() -> &'static str {
        "seed               | steps | cr/rs | fs ok/deg | rpc ok/deg | rpl | re# | scr | verdict"
    }
}

/// The storm shape used by every campaign (poison region filled in per
/// rack at run time).
fn storm_config(steps: u32, poison_region: (GAddr, usize)) -> StormConfig {
    StormConfig {
        steps,
        min_live_nodes: 2,
        poison_region: Some(poison_region),
        ..StormConfig::default()
    }
}

/// Run one seeded campaign end to end and check every invariant.
///
/// Fully deterministic: the same `(seed, steps)` produces a
/// byte-identical [`SurvivalReport::log_text`].
///
/// # Panics
///
/// Panics if the rack cannot boot (global memory exhausted) — a harness
/// bug, not a campaign outcome.
#[allow(clippy::too_many_lines)]
pub fn run_campaign(seed: u64, steps: u32) -> SurvivalReport {
    let flac = FlacRack::boot(RackConfig::n_node(NODES).with_seed(seed ^ 0xF1AC)).expect("boot");
    let rack = flac.sim().clone();
    let n = rack.node_count();

    // --- File system: one mount per node, a shared campaign directory.
    let mut fs: Vec<MemFs> = (0..n)
        .map(|i| MemFs::mount(flac.fs_shared().clone(), rack.node(i)))
        .collect();
    fs[0].mkdir("/storm").expect("mkdir /storm");

    // --- RPC: a server on SERVER_NODE, one persistent client per node
    // (persistent so call ids never repeat within a campaign).
    let mut server = MsgRpcServer::new(rack.node(SERVER_NODE), RPC_PORT);
    let mut clients: Vec<MsgRpcClient> = (0..n)
        .map(|i| {
            MsgRpcClient::new(
                rack.node(i),
                NodeId(SERVER_NODE),
                RPC_PORT,
                REPLY_PORT_BASE + i as u16,
            )
        })
        .collect();
    let policy = RetryPolicy::default();

    // --- Fault-boxed applications with checkpoint protection.
    let mut orch = RecoveryOrchestrator::new();
    for (app_id, &home) in APP_HOMES.iter().enumerate() {
        let home_ctx = rack.node(home);
        let fbox = FaultBoxBuilder::new(app_id as u64)
            .stack_pages(1)
            .heap_pages(2)
            .build(
                &home_ctx,
                rack.global(),
                flac.alloc().clone(),
                flac.frames(),
                flac.epochs().clone(),
            )
            .expect("fault box");
        fbox.space()
            .write(
                &home_ctx,
                fbox.heap_va(0),
                format!("app-{app_id}").as_bytes(),
            )
            .expect("seed app state");
        let protection = Protection::new(
            RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 },
            CheckpointManager::new(flac.alloc().clone(), flac.epochs().clone()),
        );
        orch.register(&home_ctx, fbox, protection)
            .expect("register");
    }

    // --- Scrub region: the storm's poison target, filled with a known
    // pattern the reaction layer repairs word by word.
    let scrub_base = rack
        .global()
        .alloc(SCRUB_WORDS * 8, 64)
        .expect("scrub region");
    let expected_word = |addr: GAddr| SCRUB_PATTERN ^ ((addr.0 - scrub_base.0) / 8);
    for w in 0..SCRUB_WORDS as u64 {
        let addr = GAddr(scrub_base.0 + w * 8);
        rack.node(0)
            .store_uncached_u64(addr, expected_word(addr))
            .expect("fill scrub region");
    }

    // --- Scratch slots for delayed writebacks: one fresh cache line per
    // dirty write, so a lost (crashed-away) line can never alias a
    // committed one.
    let scratch_base = rack
        .global()
        .alloc(64 * steps as usize + 64, 64)
        .expect("scratch region");
    let mut next_slot = 0u64;

    // --- Campaign state threaded through the reaction closure.
    let mut live = vec![true; n];
    let mut committed: Vec<(String, String)> = Vec::new();
    let mut next_file = 0u64;
    let mut pending: Vec<(usize, GAddr, u64)> = Vec::new(); // dirty, unflushed
    let mut flushed: Vec<(GAddr, u64)> = Vec::new(); // written back: must survive
    let mut fs_commits = 0u64;
    let mut fs_degraded = 0u64;
    let mut fs_replays = 0u64;
    let mut fs_entries_replayed = 0u64;
    let mut rpc_acked = 0u64;
    let mut rpc_degraded = 0u64;
    let mut rpc_issued = 0u64;
    let mut scratch_lost = 0u64;
    let mut scrubs = 0u64;
    let mut reelections = 0u64;
    let mut violations: Vec<String> = Vec::new();

    let campaign = StormCampaign::new(seed, storm_config(steps, (scrub_base, SCRUB_WORDS * 8)));
    let report = campaign.run(&rack, |step, op, rack| {
        let lowest_live =
            |live: &[bool]| live.iter().position(|&a| a).expect("min_live_nodes >= 2");
        match *op {
            StormOp::Workload => {
                // Flush the oldest pending dirty line whose node is live.
                let mut note = String::new();
                if let Some(i) = pending.iter().position(|&(node, _, _)| live[node]) {
                    let (node, addr, value) = pending.remove(i);
                    rack.node(node).writeback(addr, 8);
                    flushed.push((addr, value));
                    note = format!(", flushed {addr}");
                }
                // A committed file write from the round-robin writer.
                let writer = (step as usize..step as usize + n)
                    .map(|k| k % n)
                    .find(|&k| live[k])
                    .expect("min_live_nodes >= 2");
                let path = format!("/storm/f{next_file:04}");
                let content = format!("s{seed:016x}-{step:04}");
                match fs[writer].write_file(&path, content.as_bytes()) {
                    Ok(_) => {
                        committed.push((path.clone(), content));
                        next_file += 1;
                        fs_commits += 1;
                    }
                    Err(e) => {
                        fs_degraded += 1;
                        return format!("fs write degraded on n{writer}: {e}{note}");
                    }
                }
                // An RPC from the first live non-server node.
                let caller = (0..n).find(|&k| live[k] && k != SERVER_NODE);
                if !live[SERVER_NODE] {
                    rpc_degraded += 1;
                    return format!("wrote {path} on n{writer}; rpc skipped (server down){note}");
                }
                let Some(caller) = caller else {
                    rpc_degraded += 1;
                    return format!("wrote {path} on n{writer}; rpc skipped (no caller){note}");
                };
                rpc_issued += 1;
                let args = format!("step-{step:04}");
                let server = &mut server;
                let out = clients[caller].call_with_retry(args.as_bytes(), &policy, &mut |_| {
                    let mut handler = |req: &[u8]| {
                        let mut r = b"ack:".to_vec();
                        r.extend_from_slice(req);
                        r
                    };
                    server.drain(&mut handler).map(|_| ())
                });
                match out {
                    Ok(reply) => {
                        if reply == format!("ack:{args}").into_bytes() {
                            rpc_acked += 1;
                            format!("wrote {path} on n{writer}; rpc acked from n{caller}{note}")
                        } else {
                            violations.push(format!(
                                "step {step}: rpc reply mismatch for {args}"
                            ));
                            format!("rpc reply MISMATCH on step {step}")
                        }
                    }
                    Err(e) => {
                        rpc_degraded += 1;
                        format!("wrote {path} on n{writer}; rpc degraded from n{caller}: {e}{note}")
                    }
                }
            }
            StormOp::DelayedWriteback { node } => {
                let node_idx = node.0;
                if !live[node_idx] {
                    return format!("dirty write skipped: n{node_idx} down");
                }
                let addr = GAddr(scratch_base.0 + next_slot * 64);
                next_slot += 1;
                let value = seed ^ (u64::from(step) << 32) ^ addr.0;
                match rack.node(node_idx).write_u64(addr, value) {
                    Ok(()) => {
                        pending.push((node_idx, addr, value));
                        format!("dirty write on n{node_idx} @ {addr} (unflushed)")
                    }
                    Err(e) => format!("dirty write failed on n{node_idx}: {e}"),
                }
            }
            StormOp::CrashNode { node } => {
                let node_idx = node.0;
                live[node_idx] = false;
                // Dirty, un-written-back lines on the victim die with it.
                let before = pending.len();
                pending.retain(|&(owner, _, _)| owner != node_idx);
                scratch_lost += (before - pending.len()) as u64;
                // Re-elect every fault box homed there onto a survivor.
                let rescuer = lowest_live(&live);
                match orch.handle_node_crash(&rack.node(rescuer), node) {
                    Ok(rehomed) => {
                        reelections += rehomed.len() as u64;
                        format!(
                            "crash n{node_idx}: {} dirty lines lost, re-homed {rehomed:?} onto n{rescuer}",
                            before - pending.len()
                        )
                    }
                    Err(e) => {
                        violations.push(format!("step {step}: re-election failed: {e}"));
                        format!("crash n{node_idx}: re-election FAILED: {e}")
                    }
                }
            }
            StormOp::RestartNode { node } => {
                let node_idx = node.0;
                live[node_idx] = true;
                // The restarted node's local replica is gone: rebuild the
                // mount purely from the journal.
                match fs[node_idx].recover() {
                    Ok(replayed) => {
                        fs_replays += 1;
                        fs_entries_replayed += replayed;
                        format!("restart n{node_idx}: journal replayed {replayed} entries")
                    }
                    Err(e) => {
                        violations.push(format!("step {step}: journal replay failed: {e}"));
                        format!("restart n{node_idx}: journal replay FAILED: {e}")
                    }
                }
            }
            StormOp::FailLink { from, to } => {
                format!("link n{}->n{} severed; workload continues", from.0, to.0)
            }
            StormOp::RestoreLink { from, to } => {
                format!("link n{}->n{} restored", from.0, to.0)
            }
            StormOp::PoisonWord { addr } => {
                // Scrub and repair from the known-good pattern.
                let fixer = lowest_live(&live);
                let ctx = rack.node(fixer);
                ctx.global().scrub(addr, 8);
                match ctx.store_uncached_u64(addr, expected_word(addr)) {
                    Ok(()) => {
                        scrubs += 1;
                        format!("poison @ {addr}: scrubbed and repaired by n{fixer}")
                    }
                    Err(e) => {
                        violations.push(format!("step {step}: scrub failed at {addr}: {e}"));
                        format!("poison @ {addr}: repair FAILED: {e}")
                    }
                }
            }
        }
    });

    // --- Post-heal: flush every remaining dirty line (all nodes live).
    while let Some((node, addr, value)) = pending.pop() {
        rack.node(node).writeback(addr, 8);
        flushed.push((addr, value));
    }

    // --- Invariant 1: no lost committed writes.
    for (path, content) in &committed {
        match fs[0].read_file(path) {
            Ok(data) if data == content.as_bytes() => {}
            Ok(data) => violations.push(format!(
                "committed {path} corrupted: want {:?}, got {:?}",
                content,
                String::from_utf8_lossy(&data)
            )),
            Err(e) => violations.push(format!("committed {path} unreadable: {e}")),
        }
    }
    for &(addr, value) in &flushed {
        match rack.node(0).load_uncached_u64(addr) {
            Ok(got) if got == value => {}
            Ok(got) => violations.push(format!(
                "flushed scratch {addr} lost: want {value:#x}, got {got:#x}"
            )),
            Err(e) => violations.push(format!("flushed scratch {addr} unreadable: {e}")),
        }
    }
    for w in 0..SCRUB_WORDS as u64 {
        let addr = GAddr(scrub_base.0 + w * 8);
        match rack.node(0).load_uncached_u64(addr) {
            Ok(got) if got == expected_word(addr) => {}
            Ok(got) => violations.push(format!(
                "scrub word {addr} wrong: want {:#x}, got {got:#x}",
                expected_word(addr)
            )),
            Err(e) => violations.push(format!("scrub word {addr} unreadable: {e}")),
        }
    }

    // --- Invariant 2: no double-delivery.
    if server.executed() < rpc_acked {
        violations.push(format!(
            "rpc executed {} < acked {} — an acked call was never executed",
            server.executed(),
            rpc_acked
        ));
    }
    if server.executed() > rpc_issued {
        violations.push(format!(
            "rpc executed {} > issued {} — some call id executed twice",
            server.executed(),
            rpc_issued
        ));
    }

    // --- Invariant 3: liveness after recovery.
    for (i, mount) in fs.iter_mut().enumerate() {
        if !rack.is_alive(NodeId(i)) {
            violations.push(format!("node {i} still down after heal"));
            continue;
        }
        let path = format!("/storm/liveness-n{i}");
        match mount.write_file(&path, b"alive") {
            Ok(_) => match mount.read_file(&path) {
                Ok(data) if data == b"alive" => {}
                _ => violations.push(format!("post-heal read failed on node {i}")),
            },
            Err(e) => violations.push(format!("post-heal write failed on node {i}: {e}")),
        }
    }
    {
        let caller = if SERVER_NODE == 0 { 1 } else { 0 };
        let server = &mut server;
        let out = clients[caller].call_with_retry(b"post-heal", &policy, &mut |_| {
            let mut handler = |req: &[u8]| {
                let mut r = b"ack:".to_vec();
                r.extend_from_slice(req);
                r
            };
            server.drain(&mut handler).map(|_| ())
        });
        match out {
            Ok(reply) if reply == b"ack:post-heal" => rpc_issued += 1,
            other => violations.push(format!("post-heal rpc failed: {other:?}")),
        }
    }
    for (app_id, _) in APP_HOMES.iter().enumerate() {
        let fbox = orch.fault_box(app_id as u64).expect("registered");
        let home = rack.node(fbox.home().0);
        let want = format!("app-{app_id}");
        let mut buf = vec![0u8; want.len()];
        match fbox.space().read(&home, fbox.heap_va(0), &mut buf) {
            Ok(()) if buf == want.as_bytes() => {}
            other => violations.push(format!(
                "app {app_id} state lost on n{} after storm: {other:?}",
                fbox.home().0
            )),
        }
    }

    SurvivalReport {
        seed,
        counts: report.counts,
        events: report.events.len(),
        fs_commits,
        fs_degraded,
        fs_replays,
        fs_entries_replayed,
        rpc_acked,
        rpc_degraded,
        rpc_executed: server.executed(),
        rpc_dup_suppressed: server.dup_suppressed(),
        rpc_issued,
        scratch_flushed: flushed.len() as u64,
        scratch_lost,
        scrubs,
        reelections,
        violations,
        log_text: report.log_text(),
        metrics: rack.metrics_report(),
    }
}

/// Pages in the tiering campaign's shared address space.
const TIER_PAGES: u64 = 48;
/// Local-DRAM budget of the campaign's migrating node, in pages.
const TIER_BUDGET_PAGES: usize = 8;
/// The node running promotions/demotions (and crashing mid-flight).
const TIER_NODE: usize = 0;
/// Address-space id of the campaign workload.
const TIER_ASID: u64 = 1;

/// Outcome of one tiering storm campaign.
#[derive(Debug, Clone)]
pub struct TieringSurvivalReport {
    /// The seed the campaign ran from.
    pub seed: u64,
    /// Per-class storm operation counts.
    pub counts: StormCounts,
    /// Total executed steps (heal steps included).
    pub events: usize,
    /// Page writes acknowledged to the workload.
    pub writes_committed: u64,
    /// Page writes skipped (page migrating or its home node down).
    pub writes_skipped: u64,
    /// Migrations committed global → local.
    pub promotions: u64,
    /// Migrations committed local → global.
    pub demotions: u64,
    /// Mid-flight migrations rolled back (survivor abort after a crash,
    /// plus the end-of-campaign cleanup abort if one was in flight).
    pub aborts: u64,
    /// Invariant violations (empty on a surviving campaign).
    pub violations: Vec<String>,
    /// The byte-identical replay artifact.
    pub log_text: String,
    /// The merged rack metrics after the campaign.
    pub metrics: rack_sim::RackReport,
}

impl TieringSurvivalReport {
    /// Whether every invariant held.
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }

    /// One summary row for the survival table.
    pub fn row(&self) -> String {
        format!(
            "{:#018x} | {:>5} | {:>2}/{:<2} | {:>4}/{:<4} | {:>4} | {:>4} | {:>3} | {}",
            self.seed,
            self.events,
            self.counts.crashes,
            self.counts.restarts,
            self.writes_committed,
            self.writes_skipped,
            self.promotions,
            self.demotions,
            self.aborts,
            if self.survived() {
                "ok".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }

    /// Header matching [`TieringSurvivalReport::row`].
    pub fn header() -> &'static str {
        "seed               | steps | cr/rs | wr ok/skip | prom | demo | abt | verdict"
    }
}

/// Rack-wide shootdown that only expects the live nodes to participate
/// (dead peers have no stale TLB; acks from stragglers are not awaited).
fn shootdown_live(
    tlbs: &mut [Tlb],
    live: &[bool],
    initiator: usize,
    asid: u64,
    vpn: u64,
) -> Result<(), SimError> {
    let peers: Vec<NodeId> = tlbs.iter().map(Tlb::node_id).collect();
    let expected = tlbs[initiator].begin_shootdown(&peers, asid, vpn)?;
    for (i, tlb) in tlbs.iter_mut().enumerate() {
        if i != initiator && live[i] {
            tlb.service_shootdowns()?;
        }
    }
    let _ = tlbs[initiator].collect_acks(expected);
    Ok(())
}

/// Run one seeded tiering storm campaign: node 0 continuously promotes
/// and demotes pages of a shared address space (one migration stage per
/// workload step) while the storm crashes and restarts nodes underneath
/// it, and every node keeps writing to non-migrating pages.
///
/// Invariants checked after the heal:
///
/// 1. **No lost committed writes** — every page holds exactly the last
///    content a write acknowledged, whether the page was promoted,
///    demoted, or caught mid-migration by a crash (the old copy stays
///    authoritative until commit, so a survivor's abort loses nothing).
/// 2. **No torn mappings** — no PTE is left with the `Migrating` guard.
/// 3. **Budget accounting** — the migrating node never holds more local
///    pages than its budget.
///
/// Fully deterministic: the same `(seed, steps)` produces a
/// byte-identical [`TieringSurvivalReport::log_text`].
///
/// # Panics
///
/// Panics if the rack cannot boot — a harness bug, not an outcome.
#[allow(clippy::too_many_lines)]
pub fn run_tiering_campaign(seed: u64, steps: u32) -> TieringSurvivalReport {
    let flac = FlacRack::boot(RackConfig::n_node(NODES).with_seed(seed ^ 0xF1AC)).expect("boot");
    let rack = flac.sim().clone();
    let n = rack.node_count();
    let n0 = rack.node(TIER_NODE);

    let space = AddressSpace::alloc(
        TIER_ASID,
        rack.global(),
        flac.alloc().clone(),
        flac.epochs().clone(),
        flac.retired().clone(),
    )
    .expect("address space");
    let frames = FrameAllocator::new(rack.global().clone());
    let mut model: Vec<Vec<u8>> = Vec::new();
    for vpn in 0..TIER_PAGES {
        let f = frames.alloc(&n0).expect("frame");
        space
            .map(&n0, vpn, Pte::new(PhysFrame::Global(f), true))
            .expect("map");
        let content = format!("init-{vpn:04}").into_bytes();
        space
            .write(&n0, VirtAddr::from_vpn(vpn), &content)
            .expect("seed page");
        model.push(content);
    }
    let mut tlbs: Vec<Tlb> = (0..n).map(|i| Tlb::new(rack.node(i), 64)).collect();
    let mut pool = LocalFramePool::new();

    // --- Campaign state threaded through the reaction closure.
    let mut live = vec![true; n];
    // vpn → local frame of pages promoted onto TIER_NODE (BTreeMap so the
    // demotion victim — the smallest vpn — is deterministic).
    let mut promoted: std::collections::BTreeMap<u64, rack_sim::LAddr> =
        std::collections::BTreeMap::new();
    // One in-flight staged migration: (migration, promote?).
    let mut in_flight: Option<(Migration, bool)> = None;
    let mut mig_cursor = 0u64;
    let mut writes_committed = 0u64;
    let mut writes_skipped = 0u64;
    let mut promotions = 0u64;
    let mut demotions = 0u64;
    let mut aborts = 0u64;
    let mut violations: Vec<String> = Vec::new();

    let config = StormConfig {
        steps,
        min_live_nodes: 2,
        link_fail_weight: 0,
        link_restore_weight: 0,
        poison_weight: 0,
        delayed_writeback_weight: 0,
        poison_region: None,
        ..StormConfig::default()
    };
    let campaign = StormCampaign::new(seed, config);
    let report = campaign.run(&rack, |step, op, rack| {
        match *op {
            StormOp::Workload => {
                // --- One migration micro-step on the tiering node.
                let note;
                if live[TIER_NODE] {
                    match in_flight.take() {
                        None => {
                            // Choose the next migration: demote the
                            // smallest promoted vpn when at budget, else
                            // promote the cursor's next global page.
                            if promoted.len() >= TIER_BUDGET_PAGES {
                                let vpn = *promoted.keys().next().expect("non-empty");
                                let dst = PhysFrame::Global(frames.alloc(&n0).expect("frame"));
                                match Migration::begin(&n0, &space, vpn, dst) {
                                    Ok(m) => {
                                        in_flight = Some((m, false));
                                        note = format!(", demote of vpn {vpn} began");
                                    }
                                    Err(e) => note = format!(", demote begin failed: {e}"),
                                }
                            } else {
                                let vpn = mig_cursor % TIER_PAGES;
                                mig_cursor += 1;
                                if promoted.contains_key(&vpn) {
                                    note = format!(", vpn {vpn} already local");
                                } else {
                                    let dst = PhysFrame::Local(
                                        n0.id(),
                                        pool.alloc(&n0).expect("local frame"),
                                    );
                                    match Migration::begin(&n0, &space, vpn, dst) {
                                        Ok(m) => {
                                            in_flight = Some((m, true));
                                            note = format!(", promote of vpn {vpn} began");
                                        }
                                        Err(e) => note = format!(", promote begin failed: {e}"),
                                    }
                                }
                            }
                        }
                        Some((mut m, promote)) => {
                            let vpn = m.vpn();
                            if m.copy(&n0, &space).is_err() {
                                m.abort(&n0, &space).expect("abort");
                                match m.new_frame() {
                                    PhysFrame::Global(g) => frames.free(&n0, g),
                                    PhysFrame::Local(_, l) => pool.free(l),
                                }
                                aborts += 1;
                                note = format!(", copy of vpn {vpn} failed; aborted");
                            } else {
                                let dst = m.new_frame();
                                let old = m
                                    .commit(&n0, &space, &mut |asid, vpn| {
                                        shootdown_live(&mut tlbs, &live, TIER_NODE, asid, vpn)
                                    })
                                    .expect("commit");
                                match old.frame {
                                    PhysFrame::Global(g) => frames.free(&n0, g),
                                    PhysFrame::Local(_, l) => pool.free(l),
                                }
                                if promote {
                                    let PhysFrame::Local(_, l) = dst else {
                                        unreachable!("promotion targets a local frame")
                                    };
                                    promoted.insert(vpn, l);
                                    promotions += 1;
                                    note = format!(", promoted vpn {vpn}");
                                } else {
                                    promoted.remove(&vpn);
                                    demotions += 1;
                                    note = format!(", demoted vpn {vpn}");
                                }
                            }
                        }
                    }
                } else {
                    note = format!(", tier idle (n{TIER_NODE} down)");
                }

                // --- A committed write to a round-robin page from the
                // node that can reach its frame.
                let vpn = u64::from(step) % TIER_PAGES;
                let lowest_live = live.iter().position(|&a| a).expect("live");
                let pte = space
                    .translate(&rack.node(lowest_live), VirtAddr::from_vpn(vpn))
                    .expect("walk")
                    .expect("mapped");
                if pte.migrating {
                    writes_skipped += 1;
                    return format!("write vpn {vpn} skipped: migrating{note}");
                }
                let writer = match pte.frame {
                    PhysFrame::Local(home, _) => {
                        if !live[home.0] {
                            writes_skipped += 1;
                            return format!(
                                "write vpn {vpn} skipped: local home n{} down{note}",
                                home.0
                            );
                        }
                        home.0
                    }
                    PhysFrame::Global(_) => lowest_live,
                };
                let content = format!("s{seed:016x}-{step:04}").into_bytes();
                match space.write(&rack.node(writer), VirtAddr::from_vpn(vpn), &content) {
                    Ok(()) => {
                        model[vpn as usize] = content;
                        writes_committed += 1;
                        format!("wrote vpn {vpn} from n{writer}{note}")
                    }
                    Err(e) => {
                        writes_skipped += 1;
                        format!("write vpn {vpn} degraded on n{writer}: {e}{note}")
                    }
                }
            }
            StormOp::CrashNode { node } => {
                let node_idx = node.0;
                live[node_idx] = false;
                // The crash-consistency story: a survivor rolls back any
                // migration the dead node left mid-flight — the old copy
                // is still authoritative, so nothing is lost.
                if node_idx == TIER_NODE {
                    if let Some((m, _)) = in_flight.take() {
                        let rescuer = live.iter().position(|&a| a).expect("min_live_nodes >= 2");
                        m.abort(&rack.node(rescuer), &space)
                            .expect("survivor abort");
                        match m.new_frame() {
                            PhysFrame::Global(g) => frames.free(&rack.node(rescuer), g),
                            PhysFrame::Local(_, l) => pool.free(l),
                        }
                        aborts += 1;
                        return format!(
                            "crash n{node_idx}: survivor n{rescuer} aborted mid-flight \
                             migration of vpn {} (old copy authoritative)",
                            m.vpn()
                        );
                    }
                    return format!("crash n{node_idx}: tiering paused, no migration in flight");
                }
                format!("crash n{node_idx}: workload continues")
            }
            StormOp::RestartNode { node } => {
                let node_idx = node.0;
                live[node_idx] = true;
                // A restarted node boots with a cold TLB.
                tlbs[node_idx].flush_asid(TIER_ASID);
                format!("restart n{node_idx}: TLB cold, tiering resumes")
            }
            StormOp::DelayedWriteback { .. }
            | StormOp::FailLink { .. }
            | StormOp::RestoreLink { .. }
            | StormOp::PoisonWord { .. } => "unused op class (weight 0)".to_string(),
        }
    });

    // --- Post-heal: roll back any still-open migration window.
    if let Some((m, _)) = in_flight.take() {
        m.abort(&n0, &space).expect("cleanup abort");
        match m.new_frame() {
            PhysFrame::Global(g) => frames.free(&n0, g),
            PhysFrame::Local(_, l) => pool.free(l),
        }
        aborts += 1;
    }

    // --- Invariant 1: no lost committed writes, readable from any node.
    for vpn in 0..TIER_PAGES {
        let want = &model[vpn as usize];
        let pte = match space.translate(&n0, VirtAddr::from_vpn(vpn)) {
            Ok(Some(pte)) => pte,
            other => {
                violations.push(format!("vpn {vpn} unmapped after storm: {other:?}"));
                continue;
            }
        };
        // Invariant 2: no torn mappings.
        if pte.migrating {
            violations.push(format!("vpn {vpn} left with the Migrating guard set"));
            continue;
        }
        // Read through the frame's home so local pages are reachable.
        let reader = match pte.frame {
            PhysFrame::Local(home, _) => rack.node(home.0),
            PhysFrame::Global(_) => n0.clone(),
        };
        let mut buf = vec![0u8; want.len()];
        match space.read(&reader, VirtAddr::from_vpn(vpn), &mut buf) {
            Ok(()) if &buf == want => {}
            Ok(()) => violations.push(format!(
                "vpn {vpn} corrupted: want {:?}, got {:?}",
                String::from_utf8_lossy(want),
                String::from_utf8_lossy(&buf)
            )),
            Err(e) => violations.push(format!("vpn {vpn} unreadable: {e}")),
        }
    }

    // --- Invariant 3: budget accounting.
    if promoted.len() > TIER_BUDGET_PAGES {
        violations.push(format!(
            "local tier over budget: {} > {TIER_BUDGET_PAGES} pages",
            promoted.len()
        ));
    }

    TieringSurvivalReport {
        seed,
        counts: report.counts,
        events: report.events.len(),
        writes_committed,
        writes_skipped,
        promotions,
        demotions,
        aborts,
        violations,
        log_text: report.log_text(),
        metrics: rack.metrics_report(),
    }
}

/// The shared ledger under the sync campaign's cell: committed entries
/// in commit order (so divergence is directly visible).
#[derive(Debug, Default, Clone)]
struct SyncLedger {
    entries: Vec<(u32, u32)>,
}

impl flacdk::sync::SyncState for SyncLedger {
    fn apply(&mut self, op: &[u8]) {
        let mut d = flacdk::wire::Decoder::new(op);
        if let (Ok(node), Ok(step)) = (d.u32(), d.u32()) {
            self.entries.push((node, step));
        }
    }
}

fn sync_op(node: usize, step: u32) -> Vec<u8> {
    let mut e = flacdk::wire::Encoder::new();
    e.put_u32(node as u32).put_u32(step);
    e.into_vec()
}

/// Outcome of one sync-cell storm campaign.
#[derive(Debug, Clone)]
pub struct SyncSurvivalReport {
    /// The seed the campaign ran from.
    pub seed: u64,
    /// Per-class storm operation counts.
    pub counts: StormCounts,
    /// Total executed steps (heal steps included).
    pub events: usize,
    /// Updates acknowledged (committed to the cell's op log).
    pub ops_committed: u64,
    /// Updates skipped because no live node could issue them.
    pub ops_skipped: u64,
    /// Delegation owners re-elected after a crash.
    pub reelections: u64,
    /// Entries the post-heal log replay reconstructed.
    pub replayed: u64,
    /// Invariant violations (empty on a surviving campaign).
    pub violations: Vec<String>,
    /// The byte-identical replay artifact.
    pub log_text: String,
    /// The merged rack metrics after the campaign.
    pub metrics: rack_sim::RackReport,
}

impl SyncSurvivalReport {
    /// Whether every invariant held.
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }

    /// One summary row for the survival table.
    pub fn row(&self) -> String {
        format!(
            "{:#018x} | {:>5} | {:>2}/{:<2} | {:>4}/{:<4} | {:>3} | {:>5} | {}",
            self.seed,
            self.events,
            self.counts.crashes,
            self.counts.restarts,
            self.ops_committed,
            self.ops_skipped,
            self.reelections,
            self.replayed,
            if self.survived() {
                "ok".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }

    /// Header matching [`SyncSurvivalReport::row`].
    pub fn header() -> &'static str {
        "seed               | steps | cr/rs | op ok/skip | re# | rplay | verdict"
    }
}

/// Run one seeded sync-cell storm campaign: every live node commits
/// updates into one **delegated** [`flacdk::sync::SyncCell`] while the
/// storm crashes and restarts nodes underneath it — including the
/// delegation owner mid-stream. Crashes route through
/// [`RecoveryOrchestrator::handle_node_crash`] with the cell attached
/// ([`RecoveryOrchestrator::attach_sync`]), the same path `FlacRack`
/// wires up, so a dead owner is re-elected and the committed op log
/// drained by a survivor.
///
/// Invariants checked after the heal:
///
/// 1. **No committed update lost** — the cell's final state holds
///    exactly the acknowledged ops, in commit (log) order, across every
///    re-election.
/// 2. **Replay-verified** — replaying the cell's op log from scratch
///    ([`flacdk::sync::SyncCell::replay`]) reconstructs the identical
///    state (the campaign never garbage-collects the log, precisely so
///    this check can cover its whole history).
/// 3. **Liveness** — after the heal every node can read the cell and
///    commit one more update through the re-elected owner.
///
/// Fully deterministic: the same `(seed, steps)` produces a
/// byte-identical [`SyncSurvivalReport::log_text`].
///
/// # Panics
///
/// Panics if the rack cannot boot — a harness bug, not an outcome.
#[allow(clippy::too_many_lines)]
pub fn run_sync_campaign(seed: u64, steps: u32) -> SyncSurvivalReport {
    use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy};

    let rack = rack_sim::Rack::new(
        RackConfig::n_node(NODES)
            .with_global_mem(64 << 20)
            .with_seed(seed ^ 0xF1AC),
    );
    let n = rack.node_count();
    // A generously sized log and no gc() calls: the whole campaign must
    // stay replayable for invariant 2.
    let cell = SyncCell::alloc(
        rack.global(),
        "storm_ledger",
        SyncCellConfig::new(n, SyncPolicy::Delegated).with_log(4096, 48),
        SyncLedger::default(),
    )
    .expect("cell");
    let mut orch = RecoveryOrchestrator::new();
    orch.attach_sync(cell.clone());

    let mut live = vec![true; n];
    // Acknowledged ops keyed by commit index: the model the final state
    // must match exactly.
    let mut model: Vec<(u64, (u32, u32))> = Vec::new();
    let mut ops_committed = 0u64;
    let mut ops_skipped = 0u64;
    let mut reelections = 0u64;
    let mut violations: Vec<String> = Vec::new();

    let config = StormConfig {
        steps,
        min_live_nodes: 2,
        link_fail_weight: 0,
        link_restore_weight: 0,
        poison_weight: 0,
        delayed_writeback_weight: 0,
        poison_region: None,
        ..StormConfig::default()
    };
    let campaign = StormCampaign::new(seed, config);
    let report = campaign.run(&rack, |step, op, rack| match *op {
        StormOp::Workload => {
            // A round-robin live node commits one update; a second live
            // node reads and must see every previously committed op.
            let Some(writer) = (step as usize..step as usize + n)
                .map(|k| k % n)
                .find(|&k| live[k])
            else {
                ops_skipped += 1;
                return "update skipped: no live writer".to_string();
            };
            let ctx = rack.node(writer);
            match cell.update(&ctx, &sync_op(writer, step)) {
                Ok(idx) => {
                    model.push((idx, (writer as u32, step)));
                    ops_committed += 1;
                    let reader = (0..n).rev().find(|&k| live[k]).expect("live reader");
                    let seen = cell
                        .read(&rack.node(reader), |l| l.entries.len())
                        .expect("read");
                    if (seen as u64) < ops_committed {
                        violations.push(format!(
                            "step {step}: n{reader} sees {seen} < {ops_committed} committed"
                        ));
                    }
                    format!("op {idx} committed from n{writer}, n{reader} sees {seen}")
                }
                Err(e) => {
                    ops_skipped += 1;
                    format!("update degraded on n{writer}: {e}")
                }
            }
        }
        StormOp::CrashNode { node } => {
            let node_idx = node.0;
            live[node_idx] = false;
            let rescuer = live.iter().position(|&a| a).expect("min_live_nodes >= 2");
            let ctx = rack.node(rescuer);
            let owner_before = cell.owner_node(&ctx).expect("owner");
            match orch.handle_node_crash(&ctx, node) {
                Ok(_) => {
                    let owner_after = cell.owner_node(&ctx).expect("owner");
                    if owner_before == Some(node) {
                        reelections += 1;
                        format!(
                            "crash n{node_idx}: delegation owner died; n{rescuer} re-elected \
                             (owner now {owner_after:?})"
                        )
                    } else {
                        format!("crash n{node_idx}: owner {owner_before:?} unaffected")
                    }
                }
                Err(e) => {
                    violations.push(format!("step {step}: sync recovery failed: {e}"));
                    format!("crash n{node_idx}: sync recovery FAILED: {e}")
                }
            }
        }
        StormOp::RestartNode { node } => {
            live[node.0] = true;
            format!("restart n{}: rejoins as a plain client", node.0)
        }
        StormOp::DelayedWriteback { .. }
        | StormOp::FailLink { .. }
        | StormOp::RestoreLink { .. }
        | StormOp::PoisonWord { .. } => "unused op class (weight 0)".to_string(),
    });

    // --- Invariant 1: no committed update lost, in commit order.
    model.sort_unstable_by_key(|&(idx, _)| idx);
    let expected: Vec<(u32, u32)> = model.iter().map(|&(_, op)| op).collect();
    let n0 = rack.node(0);
    let final_entries = cell.read(&n0, |l| l.entries.clone()).expect("final read");
    if final_entries != expected {
        violations.push(format!(
            "committed ops lost or reordered: cell has {} entries, model {}",
            final_entries.len(),
            expected.len()
        ));
    }

    // --- Invariant 2: replaying the log from scratch reconstructs the
    // identical state.
    let (replayed_state, replayed) = cell.replay(&n0, SyncLedger::default()).expect("log replay");
    if replayed_state.entries != expected {
        violations.push(format!(
            "log replay diverged: {} replayed entries vs {} committed",
            replayed_state.entries.len(),
            expected.len()
        ));
    }

    // --- Invariant 3: liveness through the re-elected owner.
    for i in 0..n {
        if !rack.is_alive(NodeId(i)) {
            violations.push(format!("node {i} still down after heal"));
        }
    }
    match cell.update(&n0, &sync_op(0, steps)) {
        Ok(_) => {
            let len = cell.read(&n0, |l| l.entries.len()).expect("post-heal read");
            if len as u64 != ops_committed + 1 {
                violations.push(format!(
                    "post-heal update invisible: {len} entries vs {} expected",
                    ops_committed + 1
                ));
            }
        }
        Err(e) => violations.push(format!("post-heal update failed: {e}")),
    }

    SyncSurvivalReport {
        seed,
        counts: report.counts,
        events: report.events.len(),
        ops_committed,
        ops_skipped,
        reelections,
        replayed,
        violations,
        log_text: report.log_text(),
        metrics: rack.metrics_report(),
    }
}

/// Run one seeded **node-replicated** sync-cell storm campaign: the
/// flat-combining counterpart of [`run_sync_campaign`]. Live nodes
/// drive the split publication protocol
/// ([`flacdk::sync::SyncCell::nr_publish`] →
/// [`flacdk::sync::SyncCell::nr_combine`] →
/// [`flacdk::sync::SyncCell::nr_poll`]), and on a seeded schedule the
/// campaign kills a combiner **mid-batch** — in both fatal windows —
/// or a publisher mid-publication:
///
/// * *before the tail CAS* — the role is claimed and the slots are
///   drained, but nothing committed; re-election must commit every
///   stranded publication exactly once;
/// * *after the append* — the batch is committed but no slot was
///   consumed and the role never released; re-election must dedup
///   against the committed window and **not** double-apply;
/// * *before the mask bit* — a publisher flushed its slot but died
///   before raising its summary bit; recovery must commit that slot
///   exactly once and leave the summary mask clear.
///
/// After every recovery the stranded publishers' polls must return a
/// log index (no published op lost), the cell must hold exactly the
/// model's ops (no double-apply) and the summary mask must be clear.
/// The storm's own node crashes and restarts run underneath
/// throughout. Invariants 1–3 match
/// [`run_sync_campaign`]; `reelections` counts combiner re-elections.
///
/// # Panics
///
/// Panics if the rack cannot boot — a harness bug, not an outcome.
#[allow(clippy::too_many_lines)]
pub fn run_nr_sync_campaign(seed: u64, steps: u32) -> SyncSurvivalReport {
    use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy};

    let rack = rack_sim::Rack::new(
        RackConfig::n_node(NODES)
            .with_global_mem(64 << 20)
            .with_seed(seed ^ 0xF1AC),
    );
    let n = rack.node_count();
    let cell = SyncCell::alloc(
        rack.global(),
        "storm_nr_ledger",
        SyncCellConfig::new(n, SyncPolicy::NodeReplicated).with_log(4096, 48),
        SyncLedger::default(),
    )
    .expect("cell");
    let mut orch = RecoveryOrchestrator::new();
    orch.attach_sync(cell.clone());

    let mut live = vec![true; n];
    let mut model: Vec<(u64, (u32, u32))> = Vec::new();
    let mut ops_committed = 0u64;
    let mut ops_skipped = 0u64;
    let mut reelections = 0u64;
    let mut violations: Vec<String> = Vec::new();

    let config = StormConfig {
        steps,
        min_live_nodes: 2,
        link_fail_weight: 0,
        link_restore_weight: 0,
        poison_weight: 0,
        delayed_writeback_weight: 0,
        poison_region: None,
        ..StormConfig::default()
    };
    let campaign = StormCampaign::new(seed, config);
    let report = campaign.run(&rack, |step, op, rack| match *op {
        StormOp::Workload => {
            let live_nodes: Vec<usize> = (0..n).filter(|&k| live[k]).collect();
            // Every third workload step with enough live actors stages a
            // mid-batch combiner or mid-publication publisher crash
            // instead of a clean round.
            if step % 3 == 2 && live_nodes.len() >= 4 {
                // Two publishers strand ops, a victim claims the role
                // and dies in one of the two fatal windows, or publishes
                // and dies before raising its summary bit.
                let window = (step / 3) % 3;
                let publishers = [live_nodes[0], live_nodes[1]];
                let victim = *live_nodes.last().expect("nonempty");
                for &p in &publishers {
                    match cell.nr_publish(&rack.node(p), &sync_op(p, step)) {
                        Ok(_) => {}
                        Err(e) => {
                            violations.push(format!("step {step}: publish failed on n{p}: {e}"));
                            return format!("mid-batch stage failed: publish on n{p}: {e}");
                        }
                    }
                }
                let victim_ctx = rack.node(victim);
                let armed = match window {
                    0 => cell.nr_combine_crash_before_append(&victim_ctx),
                    1 => cell.nr_combine_crash_after_append(&victim_ctx),
                    _ => cell.nr_publish_crash_before_mask(&victim_ctx, &sync_op(victim, step)),
                };
                if let Err(e) = armed {
                    violations.push(format!("step {step}: crash stage failed on n{victim}: {e}"));
                    return format!("mid-batch stage failed on n{victim}: {e}");
                }
                rack.faults().crash_node(NodeId(victim), u64::from(step));
                live[victim] = false;
                let rescuer = live.iter().position(|&a| a).expect("min_live_nodes >= 2");
                if let Err(e) = orch.handle_node_crash(&rack.node(rescuer), NodeId(victim)) {
                    violations.push(format!("step {step}: mid-batch recovery failed: {e}"));
                    return format!("mid-batch recovery FAILED: {e}");
                }
                let mut stranded = publishers.to_vec();
                if window < 2 {
                    reelections += 1;
                } else {
                    stranded.push(victim);
                }
                match cell.summary_mask().load(&rack.node(rescuer)) {
                    Ok(0) => {}
                    mask => violations.push(format!(
                        "step {step}: summary mask {mask:?} after recovery, expected 0"
                    )),
                }
                rack.faults().restart_node(NodeId(victim), u64::from(step));
                live[victim] = true;
                // Every stranded publication must have landed exactly
                // once; the poll hands back its committed index.
                for &p in &stranded {
                    match cell.nr_poll(&rack.node(p)) {
                        Ok(Some(idx)) => {
                            model.push((idx, (p as u32, step)));
                            ops_committed += 1;
                        }
                        other => violations.push(format!(
                            "step {step}: op from n{p} lost across combiner crash: {other:?}"
                        )),
                    }
                }
                let seen = cell
                    .read(&rack.node(rescuer), |l| l.entries.len())
                    .expect("read");
                if seen != model.len() {
                    violations.push(format!(
                        "step {step}: {seen} entries vs {} committed (lost or double-applied)",
                        model.len()
                    ));
                }
                let (who, when) = match window {
                    0 => ("combiner", "mid-batch (before tail CAS)"),
                    1 => ("combiner", "mid-batch (after append)"),
                    _ => ("publisher", "mid-publication (before mask bit)"),
                };
                format!(
                    "{who} n{victim} died {when}; n{rescuer} recovered {} stranded ops, \
                     {seen} total",
                    stranded.len()
                )
            } else {
                // Clean round: round-robin publisher, a different live
                // combiner drains, the publisher polls its index.
                let Some(writer) = (step as usize..step as usize + n)
                    .map(|k| k % n)
                    .find(|&k| live[k])
                else {
                    ops_skipped += 1;
                    return "publish skipped: no live writer".to_string();
                };
                if let Err(e) = cell.nr_publish(&rack.node(writer), &sync_op(writer, step)) {
                    ops_skipped += 1;
                    return format!("publish degraded on n{writer}: {e}");
                }
                let combiner = (0..n)
                    .rev()
                    .find(|&k| live[k] && k != writer)
                    .unwrap_or(writer);
                match cell.nr_combine(&rack.node(combiner)) {
                    Ok(combined) => match cell.nr_poll(&rack.node(writer)) {
                        Ok(Some(idx)) => {
                            model.push((idx, (writer as u32, step)));
                            ops_committed += 1;
                            format!(
                                "op {idx} published from n{writer}, combined ({combined}) by \
                                 n{combiner}"
                            )
                        }
                        other => {
                            violations.push(format!(
                                "step {step}: publication from n{writer} unacknowledged: {other:?}"
                            ));
                            format!("publication from n{writer} UNACKNOWLEDGED")
                        }
                    },
                    Err(e) => {
                        violations.push(format!("step {step}: combine failed on n{combiner}: {e}"));
                        format!("combine FAILED on n{combiner}: {e}")
                    }
                }
            }
        }
        StormOp::CrashNode { node } => {
            let node_idx = node.0;
            live[node_idx] = false;
            let rescuer = live.iter().position(|&a| a).expect("min_live_nodes >= 2");
            match orch.handle_node_crash(&rack.node(rescuer), node) {
                Ok(_) => format!("crash n{node_idx}: slots drained by n{rescuer}"),
                Err(e) => {
                    violations.push(format!("step {step}: sync recovery failed: {e}"));
                    format!("crash n{node_idx}: sync recovery FAILED: {e}")
                }
            }
        }
        StormOp::RestartNode { node } => {
            live[node.0] = true;
            format!("restart n{}: rejoins with a cold replica", node.0)
        }
        StormOp::DelayedWriteback { .. }
        | StormOp::FailLink { .. }
        | StormOp::RestoreLink { .. }
        | StormOp::PoisonWord { .. } => "unused op class (weight 0)".to_string(),
    });

    // --- Invariant 1: no committed update lost or double-applied, in
    // commit order.
    model.sort_unstable_by_key(|&(idx, _)| idx);
    let expected: Vec<(u32, u32)> = model.iter().map(|&(_, op)| op).collect();
    let n0 = rack.node(0);
    let final_entries = cell.read(&n0, |l| l.entries.clone()).expect("final read");
    if final_entries != expected {
        violations.push(format!(
            "committed ops lost, duplicated, or reordered: cell has {} entries, model {}",
            final_entries.len(),
            expected.len()
        ));
    }

    // --- Invariant 2: replaying the log from scratch reconstructs the
    // identical state.
    let (replayed_state, replayed) = cell.replay(&n0, SyncLedger::default()).expect("log replay");
    if replayed_state.entries != expected {
        violations.push(format!(
            "log replay diverged: {} replayed entries vs {} committed",
            replayed_state.entries.len(),
            expected.len()
        ));
    }

    // --- Invariant 3: liveness through the healed combiner path.
    for i in 0..n {
        if !rack.is_alive(NodeId(i)) {
            violations.push(format!("node {i} still down after heal"));
        }
    }
    match cell.update(&n0, &sync_op(0, steps)) {
        Ok(_) => {
            let len = cell.read(&n0, |l| l.entries.len()).expect("post-heal read");
            if len as u64 != ops_committed + 1 {
                violations.push(format!(
                    "post-heal update invisible: {len} entries vs {} expected",
                    ops_committed + 1
                ));
            }
        }
        Err(e) => violations.push(format!("post-heal update failed: {e}")),
    }

    SyncSurvivalReport {
        seed,
        counts: report.counts,
        events: report.events.len(),
        ops_committed,
        ops_skipped,
        reelections,
        replayed,
        violations,
        log_text: report.log_text(),
        metrics: rack.metrics_report(),
    }
}

/// Images in the chunk-store campaign's catalogue.
const STORE_IMAGES: usize = 3;
/// Pages per campaign image.
const STORE_IMAGE_PAGES: u64 = 64;
/// Layers per campaign image (adjacent images share half by content).
const STORE_IMAGE_LAYERS: usize = 4;
/// Max missing hashes one claim step grabs.
const STORE_CLAIM_LIMIT: usize = 24;

/// Outcome of one chunk-store storm campaign.
#[derive(Debug, Clone)]
pub struct StoreSurvivalReport {
    /// The seed the campaign ran from.
    pub seed: u64,
    /// Per-class storm operation counts.
    pub counts: StormCounts,
    /// Total executed steps (heal steps included).
    pub events: usize,
    /// Fetch claims won across the campaign.
    pub claims_won: u64,
    /// Chunks downloaded and committed present.
    pub committed: u64,
    /// In-flight claims aborted by crash recovery.
    pub aborted: u64,
    /// Chunks found already resident by claim steps.
    pub rack_hits: u64,
    /// Workload steps skipped (writer down, nothing to do).
    pub skipped: u64,
    /// Invariant violations (empty on a surviving campaign).
    pub violations: Vec<String>,
    /// The byte-identical replay artifact.
    pub log_text: String,
    /// The merged rack metrics after the campaign.
    pub metrics: rack_sim::RackReport,
}

impl StoreSurvivalReport {
    /// Whether every invariant held.
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }

    /// One summary row for the survival table.
    pub fn row(&self) -> String {
        format!(
            "{:#018x} | {:>5} | {:>2}/{:<2} | {:>4}/{:<4} | {:>3} | {:>4} | {:>4} | {}",
            self.seed,
            self.events,
            self.counts.crashes,
            self.counts.restarts,
            self.claims_won,
            self.committed,
            self.aborted,
            self.rack_hits,
            self.skipped,
            if self.survived() {
                "ok".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }

    /// Header matching [`StoreSurvivalReport::row`].
    pub fn header() -> &'static str {
        "seed               | steps | cr/rs | clm/cmt | abt | hits | skip | verdict"
    }
}

/// Run one seeded chunk-store storm campaign: live nodes cold-start
/// overlapping container images through the content-addressed store's
/// two-phase `claim`/`complete` protocol while the storm crashes and
/// restarts nodes underneath them — including fetchers *between* claim
/// and commit, the mid-fetch window. Crashes route through
/// [`RecoveryOrchestrator::handle_node_crash`] with the store attached
/// as a [`flacdk::sync::SyncRecover`], so a dead fetcher's in-flight
/// claims are aborted by an `ABORT` op in the shared log and survivors
/// re-claim the work.
///
/// Invariants checked after the heal:
///
/// 1. **No duplicate downloads** — every chunk that ended up resident
///    was shipped by its backend shard exactly once, rack-wide, no
///    matter how many claims were aborted and re-taken.
/// 2. **Index consistent** — no `Fetching` entry survives the heal,
///    every catalogue chunk is present, and the deduper holds exactly
///    one frame per unique chunk.
/// 3. **Replay-verified** — replaying the index's committed op log from
///    scratch reproduces the identical present map (the campaign never
///    calls `gc()` so the whole history stays replayable).
///
/// Fully deterministic: the same `(seed, steps)` produces a
/// byte-identical [`StoreSurvivalReport::log_text`].
///
/// # Panics
///
/// Panics if the rack cannot boot — a harness bug, not an outcome.
#[allow(clippy::too_many_lines)]
pub fn run_store_campaign(seed: u64, steps: u32) -> StoreSurvivalReport {
    use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig};
    use flacos_mem::dedup::PageDeduper;
    use serverless::image::ContainerImage;
    use std::collections::HashSet;
    use std::sync::Arc;

    let rack = rack_sim::Rack::new(
        RackConfig::n_node(NODES)
            .with_global_mem(64 << 20)
            .with_seed(seed ^ 0xF1AC),
    );
    let n = rack.node_count();

    // Overlapping catalogue: image k's layer seeds are 100+2k .. 100+2k+4,
    // so adjacent images share two of four layers by content.
    let images: Vec<ContainerImage> = (0..STORE_IMAGES)
        .map(|k| {
            ContainerImage::synthetic(
                &format!("img-{k}"),
                STORE_IMAGE_PAGES,
                STORE_IMAGE_LAYERS,
                100 + 2 * k as u64,
            )
        })
        .collect();
    let backends = Arc::new(ShardedBackends::uniform(
        4,
        BackendConfig {
            bandwidth_bytes_per_sec: 500_000_000,
            per_request_ns: 100_000,
            per_chunk_ns: 100,
        },
    ));
    let mut catalogue: HashSet<u64> = HashSet::new();
    for img in &images {
        img.publish(&backends);
        catalogue.extend(img.chunk_hashes());
    }
    let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(rack.global().clone())));
    // A generously sized log and no gc() calls: the whole campaign must
    // stay replayable for invariant 3.
    let store = ChunkStore::alloc(
        rack.global(),
        backends,
        dedup,
        StoreConfig::new(n)
            .with_log(2048, 1024)
            .with_claim_batch(STORE_CLAIM_LIMIT),
    )
    .expect("store");
    let mut orch = RecoveryOrchestrator::new();
    orch.attach_sync(store.clone());

    let mut live = vec![true; n];
    // Claims won but not yet completed: (node, won hashes). The window
    // between the two phases is exactly where a crash hurts.
    let mut pending: Vec<(usize, Vec<u64>)> = Vec::new();
    let mut claims_won = 0u64;
    let mut committed = 0u64;
    let mut rack_hits = 0u64;
    let mut skipped = 0u64;
    let mut violations: Vec<String> = Vec::new();

    let config = StormConfig {
        steps,
        min_live_nodes: 2,
        link_fail_weight: 0,
        link_restore_weight: 0,
        poison_weight: 0,
        delayed_writeback_weight: 0,
        poison_region: None,
        ..StormConfig::default()
    };
    let campaign = StormCampaign::new(seed, config);
    let report = campaign.run(&rack, |step, op, rack| match *op {
        StormOp::Workload => {
            let Some(worker) = (step as usize..step as usize + n)
                .map(|k| k % n)
                .find(|&k| live[k])
            else {
                skipped += 1;
                return "store step skipped: no live worker".to_string();
            };
            let ctx = rack.node(worker);
            // Finish this node's oldest pending fetch first (the
            // single-flight discipline: one node never claims more
            // while sitting on won-but-unfetched work).
            if let Some(i) = pending.iter().position(|&(node, _)| node == worker) {
                let (_, won) = pending.remove(i);
                return match store.complete(&ctx, &won) {
                    Ok(done) => {
                        committed += done.committed;
                        if done.lost.is_empty() {
                            format!("n{worker} completed {} chunk(s)", done.committed)
                        } else {
                            format!(
                                "n{worker} completed {} chunk(s), lost {} to recovery",
                                done.committed,
                                done.lost.len()
                            )
                        }
                    }
                    Err(e) => {
                        violations.push(format!("step {step}: complete failed on n{worker}: {e}"));
                        format!("n{worker} complete FAILED: {e}")
                    }
                };
            }
            // Otherwise claim a slice of the step's image. Hashes other
            // nodes hold in `Fetching` stay theirs (single-flight);
            // this node only takes what is absent.
            let img = &images[step as usize % STORE_IMAGES];
            let all = img.chunk_hashes();
            let off = (step as usize * STORE_CLAIM_LIMIT) % all.len().max(1);
            let hashes: Vec<u64> = all
                .iter()
                .cycle()
                .skip(off)
                .take(STORE_CLAIM_LIMIT)
                .copied()
                .collect();
            match store.claim(&ctx, &hashes) {
                Ok(outcome) => {
                    claims_won += outcome.won.len() as u64;
                    rack_hits += outcome.present.len() as u64;
                    let msg = format!(
                        "n{worker} claim on img-{}: won {}, present {}, in-flight {}",
                        step as usize % STORE_IMAGES,
                        outcome.won.len(),
                        outcome.present.len(),
                        outcome.in_flight.len()
                    );
                    if !outcome.won.is_empty() {
                        pending.push((worker, outcome.won));
                    }
                    msg
                }
                Err(e) => {
                    violations.push(format!("step {step}: claim failed on n{worker}: {e}"));
                    format!("n{worker} claim FAILED: {e}")
                }
            }
        }
        StormOp::CrashNode { node } => {
            let node_idx = node.0;
            live[node_idx] = false;
            // The dead fetcher's won-but-unfetched work dies with it;
            // recovery aborts its index claims so survivors re-claim.
            let before = pending.len();
            pending.retain(|&(owner, _)| owner != node_idx);
            let dropped = before - pending.len();
            let rescuer = live.iter().position(|&a| a).expect("min_live_nodes >= 2");
            match orch.handle_node_crash(&rack.node(rescuer), node) {
                Ok(_) => format!(
                    "crash n{node_idx} mid-fetch: {dropped} pending batch(es) dropped, \
                     claims aborted by n{rescuer}"
                ),
                Err(e) => {
                    violations.push(format!("step {step}: store recovery failed: {e}"));
                    format!("crash n{node_idx}: store recovery FAILED: {e}")
                }
            }
        }
        StormOp::RestartNode { node } => {
            live[node.0] = true;
            format!("restart n{}: rejoins with no claims", node.0)
        }
        StormOp::DelayedWriteback { .. }
        | StormOp::FailLink { .. }
        | StormOp::RestoreLink { .. }
        | StormOp::PoisonWord { .. } => "unused op class (weight 0)".to_string(),
    });

    // --- Post-heal: resolve every still-pending claim, then a survivor
    // finishes all the starts (every claim is now either completed or
    // owned by a live node that just completed it, so ensure cannot
    // block on a dead fetcher).
    let n0 = rack.node(0);
    while let Some((node, won)) = pending.pop() {
        match store.complete(&rack.node(node), &won) {
            Ok(done) => committed += done.committed,
            Err(e) => violations.push(format!("post-heal complete on n{node} failed: {e}")),
        }
    }
    for img in &images {
        match store.ensure(&n0, &img.chunk_hashes()) {
            Ok(rep) => committed += rep.fetched,
            Err(e) => violations.push(format!("post-heal ensure failed: {e}")),
        }
    }

    // --- Invariant 1: no duplicate downloads, rack-wide.
    for &h in &catalogue {
        let fetches = store.backends().fetch_count(h);
        if fetches != 1 {
            violations.push(format!(
                "chunk {h:#018x} shipped {fetches} times — single-flight broken"
            ));
        }
    }

    // --- Invariant 2: index consistent after the heal.
    let (fetching, present) = store.peek_index(|s| (s.fetching_count(), s.present_count()));
    if fetching != 0 {
        violations.push(format!("{fetching} Fetching entries survived the heal"));
    }
    if present != catalogue.len() {
        violations.push(format!(
            "index holds {present} present chunks, catalogue has {}",
            catalogue.len()
        ));
    }
    let unique_frames = store.dedup().stats().unique_frames;
    if unique_frames != catalogue.len() as u64 {
        violations.push(format!(
            "deduper holds {unique_frames} frames for {} unique chunks",
            catalogue.len()
        ));
    }

    // --- Invariant 3: log replay reproduces the identical present map.
    match store.replay_matches(&n0) {
        Ok(true) => {}
        Ok(false) => violations.push("log replay diverged from the live index".into()),
        Err(e) => violations.push(format!("log replay failed: {e}")),
    }

    let stats = store.stats();
    StoreSurvivalReport {
        seed,
        counts: report.counts,
        events: report.events.len(),
        claims_won,
        committed,
        aborted: stats.claims_aborted,
        rack_hits,
        skipped,
        violations,
        log_text: report.log_text(),
        metrics: rack.metrics_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_survives() {
        let r = run_campaign(0xF1AC_5708, 60);
        assert!(r.survived(), "violations: {:?}", r.violations);
        assert!(r.fs_commits > 0, "workload actually committed writes");
        assert!(r.counts.crashes > 0, "storm actually crashed nodes");
    }

    #[test]
    fn replay_is_byte_identical() {
        let a = run_campaign(42, 60);
        let b = run_campaign(42, 60);
        assert_eq!(a.log_text, b.log_text, "same seed, same bytes");
        assert_ne!(
            a.log_text,
            run_campaign(43, 60).log_text,
            "different seeds diverge"
        );
    }

    #[test]
    fn acked_rpcs_execute_exactly_once() {
        let r = run_campaign(0xD15EA5E, 80);
        assert!(r.survived(), "violations: {:?}", r.violations);
        assert!(r.rpc_executed >= r.rpc_acked);
        assert!(r.rpc_executed <= r.rpc_issued);
    }

    #[test]
    fn tiering_campaign_survives_and_migrates() {
        let r = run_tiering_campaign(0xF1AC_71E4, 60);
        assert!(r.survived(), "violations: {:?}", r.violations);
        assert!(r.promotions > 0, "migrations actually committed");
        assert!(r.writes_committed > 0, "workload actually wrote pages");
        assert!(r.counts.crashes > 0, "storm actually crashed nodes");
    }

    #[test]
    fn tiering_replay_is_byte_identical() {
        let a = run_tiering_campaign(7, 60);
        let b = run_tiering_campaign(7, 60);
        assert_eq!(a.log_text, b.log_text, "same seed, same bytes");
        assert_ne!(
            a.log_text,
            run_tiering_campaign(8, 60).log_text,
            "different seeds diverge"
        );
    }

    #[test]
    fn sync_campaign_survives_and_replays() {
        let r = run_sync_campaign(0xF1AC_5C11, 60);
        assert!(r.survived(), "violations: {:?}", r.violations);
        assert!(r.ops_committed > 0, "workload actually committed updates");
        assert_eq!(r.replayed, r.ops_committed, "log covers every commit");
        assert!(r.counts.crashes > 0, "storm actually crashed nodes");
    }

    #[test]
    fn sync_replay_is_byte_identical() {
        let a = run_sync_campaign(11, 60);
        let b = run_sync_campaign(11, 60);
        assert_eq!(a.log_text, b.log_text, "same seed, same bytes");
        assert_ne!(
            a.log_text,
            run_sync_campaign(12, 60).log_text,
            "different seeds diverge"
        );
    }

    #[test]
    fn some_seed_kills_the_delegation_owner_mid_storm() {
        // The headline invariant — owner crash mid-delegation loses no
        // committed op — must actually fire across a small seed sweep.
        let mut reelections = 0u64;
        for seed in 1..=6 {
            let r = run_sync_campaign(seed, 60);
            assert!(r.survived(), "seed {seed} violations: {:?}", r.violations);
            reelections += r.reelections;
        }
        assert!(reelections > 0, "no campaign crashed the delegation owner");
    }

    #[test]
    fn nr_sync_campaign_survives_combiner_deaths_mid_batch() {
        let r = run_nr_sync_campaign(0xF1AC_5C11, 60);
        assert!(r.survived(), "violations: {:?}", r.violations);
        assert!(r.ops_committed > 0, "workload actually committed updates");
        assert_eq!(r.replayed, r.ops_committed, "log covers every commit");
        assert!(
            r.reelections > 0,
            "no combiner was killed mid-batch; the campaign must exercise both fatal windows"
        );
    }

    #[test]
    fn nr_sync_replay_is_byte_identical() {
        let a = run_nr_sync_campaign(31, 60);
        let b = run_nr_sync_campaign(31, 60);
        assert_eq!(a.log_text, b.log_text, "same seed, same bytes");
        assert_ne!(
            a.log_text,
            run_nr_sync_campaign(32, 60).log_text,
            "different seeds diverge"
        );
    }

    #[test]
    fn nr_seed_sweep_kills_combiners_in_both_windows() {
        // Both fatal windows — before the tail CAS and after the append
        // — must fire across a small seed sweep, and so must a publisher
        // dying before its mask bit; no published op may be lost or
        // double-applied in any of them.
        let (mut mid_batch, mut unflagged) = (0u64, 0usize);
        for seed in 1..=6 {
            let r = run_nr_sync_campaign(seed, 60);
            assert!(r.survived(), "seed {seed} violations: {:?}", r.violations);
            mid_batch += r.reelections;
            unflagged += r.log_text.matches("(before mask bit)").count();
        }
        assert!(mid_batch >= 2, "mid-batch combiner deaths barely fired");
        assert!(unflagged >= 1, "no publisher died before its mask bit");
    }

    #[test]
    fn some_seed_crashes_the_migrating_node_mid_flight() {
        // The crash-consistency path (survivor abort, old copy
        // authoritative) must actually fire across a small seed sweep.
        let mut aborts = 0u64;
        for seed in 1..=6 {
            let r = run_tiering_campaign(seed, 60);
            assert!(r.survived(), "seed {seed} violations: {:?}", r.violations);
            aborts += r.aborts;
        }
        assert!(aborts > 0, "no campaign crashed n0 mid-migration");
    }

    #[test]
    fn store_campaign_survives_without_duplicate_downloads() {
        let r = run_store_campaign(0xF1AC_5704, 60);
        assert!(r.survived(), "violations: {:?}", r.violations);
        assert!(r.claims_won > 0, "workload actually claimed chunks");
        assert!(r.committed > 0, "workload actually committed chunks");
        assert!(r.counts.crashes > 0, "storm actually crashed nodes");
    }

    #[test]
    fn store_replay_is_byte_identical() {
        let a = run_store_campaign(21, 60);
        let b = run_store_campaign(21, 60);
        assert_eq!(a.log_text, b.log_text, "same seed, same bytes");
        assert_ne!(
            a.log_text,
            run_store_campaign(22, 60).log_text,
            "different seeds diverge"
        );
    }

    #[test]
    fn some_seed_crashes_a_claim_holder_mid_fetch() {
        // The headline invariant — a fetcher crash between claim and
        // commit triggers recovery aborts, yet no chunk is ever shipped
        // twice — must actually fire across a small seed sweep.
        let mut aborted = 0u64;
        for seed in 1..=6 {
            let r = run_store_campaign(seed, 60);
            assert!(r.survived(), "seed {seed} violations: {:?}", r.violations);
            aborted += r.aborted;
        }
        assert!(aborted > 0, "no campaign crashed a claim holder mid-fetch");
    }
}
