//! Seeded rack-wide fault storms driven against the FlacOS stack, with
//! cross-subsystem invariant checking: section `storm` of `figures`
//! (paper §3.6).
//!
//! One driver loop runs all five [`Campaign`]s. It builds the 4-node
//! rack from the seed, takes the seed's [`storm::plan`] ([`STEPS`] steps
//! and the heal) and, for each step, injects its fault, dispatches it to
//! the campaign's reaction and logs the outcome; then it checks that
//! every node is back up and assembles one [`CampaignReport`]. Each
//! campaign supplies only its reactions to the storm's steps and its
//! post-heal invariants (see the variants); a reaction reads which nodes
//! are up from the rack itself.
//!
//! Everything derives from the campaign seed, so the event log is
//! byte-identical across runs. [`run`] sweeps every campaign over
//! [`SEEDS`], running each seed twice, and [`failures`] judges the sweep:
//! every run survived and crashed a node, every rerun reproduced its log
//! byte for byte, no two seeds share a log, and each campaign's headline
//! event fired somewhere in the sweep. To reproduce one run, call
//! `Campaign::Rack.run(seed)` (or another campaign's) and read its
//! `log_text`.

use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig};
use flacdk::reliability::checkpoint::CheckpointManager;
use flacdk::sync::{CombineWindow, SyncCell, SyncCellConfig, SyncPolicy};
use flacos::FlacRack;
use flacos_fault::fault_box::FaultBoxBuilder;
use flacos_fault::recovery::RecoveryOrchestrator;
use flacos_fault::redundancy::{Protection, RedundancyPolicy};
use flacos_fs::memfs::MemFs;
use flacos_ipc::{MsgRpcClient, MsgRpcServer};
use flacos_mem::addr::VirtAddr;
use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::tlb::Tlb;
use flacos_mem::{AddressSpace, PageSize, PhysFrame, Pte};
use flacos_tier::{LocalFramePool, Migration};
use rack_sim::storm::{self, StormCounts, StormOp, StormShape, STEPS};
use rack_sim::{GAddr, LAddr, NodeCtx, NodeId, Rack, RackConfig, SimError};
use serverless::image::ContainerImage;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The seeds [`run`] sweeps.
pub const SEEDS: std::ops::RangeInclusive<u64> = 1..=6;
/// Nodes in every campaign rack.
const NODES: usize = 4;
/// Rack campaign: the RPC server's node, its request port and the
/// first reply port.
const SERVER_NODE: usize = 1;
const RPC_PORT: u16 = 40;
const REPLY_PORT_BASE: u16 = 50;
/// Rack campaign: the poison target's size in words, and the
/// known-good pattern word `i` of it holds (`SCRUB_PATTERN ^ i`).
const SCRUB_WORDS: usize = 64;
const SCRUB_PATTERN: u64 = 0xC0DE_F1AC_0000_0000;
/// Rack campaign: the fault-boxed applications' initial homes.
const APP_HOMES: [usize; 2] = [2, 3];
/// Tiering campaign: pages in the address space (id `TIER_ASID`), the
/// migrating node and its local-DRAM budget in pages.
const TIER_PAGES: u64 = 48;
const TIER_ASID: u64 = 1;
const TIER_NODE: usize = 0;
const TIER_BUDGET_PAGES: usize = 8;
/// Store campaign: images in the catalogue, pages and layers per image
/// (adjacent images share half their layers by content), and the most
/// hashes one claim step grabs.
const STORE_IMAGES: usize = 3;
const STORE_IMAGE_PAGES: u64 = 64;
const STORE_IMAGE_LAYERS: usize = 4;
const STORE_CLAIM_LIMIT: usize = 24;

/// One of the five seeded fault-storm campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// Journaled file writes, RPCs with retry, fault-boxed applications
    /// and dirty cache lines on a booted [`FlacRack`], under crashes,
    /// link failures and memory poison. After the heal no acknowledged
    /// write is lost, no acknowledged RPC executed twice, every node can
    /// use the file system, and every application's state is intact on
    /// its (possibly re-elected) home.
    Rack,
    /// Node 0 promotes and demotes pages, one migration stage per
    /// workload step, and crashes mid-flight. No acknowledged page write
    /// is lost, no PTE keeps the `Migrating` guard, and the local tier
    /// stays within its budget.
    Tiering,
    /// Live nodes commit to a delegated [`SyncCell`] ledger while its
    /// owner dies. Every recovery leaves a live owner, the cell ends
    /// equal to the acknowledged ops in log order, a from-scratch log
    /// replay reproduces it, and a post-heal update is visible.
    Delegated,
    /// The same ledger, node-replicated, with combiners killed mid-batch
    /// and publishers killed holding a flushed publication; the same
    /// invariants.
    NodeReplicated,
    /// Cold starts of overlapping images through the chunk store's
    /// two-phase claim/complete protocol while fetchers die between the
    /// phases. No chunk is shipped twice, the index is consistent, and
    /// its log replays to the live index.
    Store,
}

impl Campaign {
    /// Every campaign, in the order `figures storm` prints them.
    pub const ALL: [Campaign; 5] = [
        Campaign::Rack,
        Campaign::Tiering,
        Campaign::Delegated,
        Campaign::NodeReplicated,
        Campaign::Store,
    ];

    /// The campaign's name in `figures storm`.
    pub fn name(self) -> &'static str {
        match self {
            Campaign::Rack => "rack",
            Campaign::Tiering => "tiering",
            Campaign::Delegated => "delegated",
            Campaign::NodeReplicated => "node-replicated",
            Campaign::Store => "store",
        }
    }

    /// Run one seeded campaign of [`STEPS`] steps end to end and check
    /// every invariant.
    ///
    /// Fully deterministic: the same seed produces a byte-identical
    /// [`CampaignReport::log_text`].
    ///
    /// # Panics
    ///
    /// Panics if the rack cannot be built (global memory exhausted) — a
    /// harness bug, not a campaign outcome.
    pub fn run(self, seed: u64) -> CampaignReport {
        match self {
            Campaign::Rack => {
                let flac = boot(seed);
                drive(self, seed, flac.sim(), RackStorm::new(&flac))
            }
            Campaign::Tiering => {
                let flac = boot(seed);
                drive(self, seed, flac.sim(), TieringStorm::new(&flac))
            }
            Campaign::Delegated => {
                let rack = bare_rack(seed);
                let ledger = Ledger::new(&rack, "storm_ledger", SyncPolicy::Delegated);
                drive(self, seed, &rack, Delegated(ledger))
            }
            Campaign::NodeReplicated => {
                let rack = bare_rack(seed);
                let ledger = Ledger::new(&rack, "storm_nr_ledger", SyncPolicy::NodeReplicated);
                drive(self, seed, &rack, NodeReplicated(ledger))
            }
            Campaign::Store => {
                let rack = bare_rack(seed);
                drive(self, seed, &rack, StoreStorm::new(&rack))
            }
        }
    }
}

/// Outcome of one campaign: storm counts, per-campaign tallies, the
/// deterministic event log, and any invariant violations.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Which campaign ran.
    pub campaign: Campaign,
    /// The seed the campaign ran from.
    pub seed: u64,
    /// Per-class storm operation counts.
    pub counts: StormCounts,
    /// Total executed steps (heal steps included).
    pub events: usize,
    /// The campaign's named counters, in row order.
    pub tallies: Vec<(&'static str, u64)>,
    /// Invariant violations (empty on a surviving campaign).
    pub violations: Vec<String>,
    /// The byte-identical replay artifact.
    pub log_text: String,
    /// The merged rack metrics after the campaign.
    pub metrics: rack_sim::RackReport,
}

impl CampaignReport {
    /// The value of the tally `name`.
    ///
    /// # Panics
    ///
    /// Panics if the campaign keeps no tally of that name.
    pub fn tally(&self, name: &str) -> u64 {
        self.tallies
            .iter()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("{} keeps no tally {name:?}", self.campaign.name()))
            .1
    }
}

/// The booted 4-node FlacOS rack of the rack and tiering campaigns.
fn boot(seed: u64) -> FlacRack {
    FlacRack::boot(RackConfig::n_node(NODES).with_seed(seed ^ 0xF1AC)).expect("boot")
}

/// The bare 4-node, 64 MiB rack of the sync-cell and store campaigns.
fn bare_rack(seed: u64) -> Rack {
    Rack::new(
        RackConfig::n_node(NODES)
            .with_global_mem(64 << 20)
            .with_seed(seed ^ 0xF1AC),
    )
}

/// What the driver keeps for every campaign: the violations found so
/// far and the campaign's named tallies.
struct Storm {
    seed: u64,
    violations: Vec<String>,
    tallies: Vec<(&'static str, u64)>,
}

impl Storm {
    fn fail(&mut self, violation: String) {
        self.violations.push(violation);
    }

    /// The tally `name`, which [`Hooks::TALLIES`] must declare.
    fn tally(&mut self, name: &str) -> &mut u64 {
        let tally = self.tallies.iter_mut().find(|(k, _)| *k == name);
        &mut tally
            .unwrap_or_else(|| panic!("undeclared tally {name:?}"))
            .1
    }

    fn add(&mut self, name: &str, by: u64) {
        *self.tally(name) += by;
    }
}

/// Whether node `k` of `rack` is up.
fn live(rack: &Rack, k: usize) -> bool {
    rack.is_alive(NodeId(k))
}

fn lowest_live(rack: &Rack) -> usize {
    (0..NODES)
        .find(|&k| live(rack, k))
        .expect("MIN_LIVE_NODES >= 2")
}

/// The first live node at or after `step`, round-robin.
fn round_robin(rack: &Rack, step: u32) -> Option<usize> {
    (step as usize..step as usize + NODES)
        .map(|k| k % NODES)
        .find(|&k| live(rack, k))
}

/// One campaign's part: reactions to the storm's steps and the
/// post-heal invariants. The driver injects a step's fault before it
/// calls the step's hook, so a crashed or restarted node already reads
/// so in `rack.is_alive`.
trait Hooks {
    /// The campaign's tally names, space-separated, in row order.
    const TALLIES: &'static str;

    /// The storm shape: crashes and restarts only.
    fn shape(&self) -> StormShape {
        StormShape::CrashRestart
    }

    fn workload(&mut self, s: &mut Storm, step: u32, rack: &Rack) -> String;

    fn crash(&mut self, s: &mut Storm, step: u32, node: NodeId, rack: &Rack) -> String;

    fn restart(&mut self, s: &mut Storm, step: u32, node: usize) -> String;

    /// Link, poison and delayed-writeback steps, which only a campaign
    /// overriding [`Hooks::shape`] schedules.
    fn other(&mut self, _s: &mut Storm, _step: u32, _op: StormOp, _rack: &Rack) -> String {
        "unused op class (weight 0)".to_string()
    }

    /// Check the campaign's invariants once every node is back up.
    fn heal(&mut self, s: &mut Storm, rack: &Rack);
}

/// Run `hooks` under the seed's storm plan on `rack` and assemble its
/// report. Each step injects its fault, runs its hook and appends
/// `"{step} :: {outcome}"` to the event log, whose first line names the
/// seed.
fn drive<H: Hooks>(campaign: Campaign, seed: u64, rack: &Rack, mut hooks: H) -> CampaignReport {
    let mut s = Storm {
        seed,
        violations: Vec::new(),
        tallies: H::TALLIES.split_whitespace().map(|k| (k, 0)).collect(),
    };
    let plan = storm::plan(seed, hooks.shape(), rack.node_count());
    let mut log_text = format!("seed {seed:#018x}\n");
    for step in &plan {
        storm::inject(rack, step);
        let outcome = match step.op {
            StormOp::Workload => hooks.workload(&mut s, step.step, rack),
            StormOp::CrashNode { node } => hooks.crash(&mut s, step.step, node, rack),
            StormOp::RestartNode { node } => hooks.restart(&mut s, step.step, node.0),
            op => hooks.other(&mut s, step.step, op, rack),
        };
        log_text.push_str(&format!("{step} :: {outcome}\n"));
    }
    let counts = StormCounts::record(rack, &plan);
    for i in 0..rack.node_count() {
        if !live(rack, i) {
            s.fail(format!("node {i} still down after heal"));
        }
    }
    hooks.heal(&mut s, rack);
    CampaignReport {
        campaign,
        seed,
        counts,
        events: plan.len(),
        tallies: s.tallies,
        violations: s.violations,
        log_text,
        metrics: rack.metrics_report(),
    }
}

/// The rack campaign's workload state.
struct RackStorm {
    /// One mount per node over a shared campaign directory.
    fs: Vec<MemFs>,
    server: MsgRpcServer,
    /// One persistent client per node, so call ids never repeat.
    clients: Vec<MsgRpcClient>,
    orch: RecoveryOrchestrator,
    /// The storm's poison target, filled with a known pattern.
    scrub_base: GAddr,
    /// One fresh cache line per dirty write, so a lost (crashed-away)
    /// line can never alias a committed one.
    scratch_base: GAddr,
    next_slot: u64,
    /// Acknowledged file writes: (path, content).
    committed: Vec<(String, String)>,
    /// Dirty, unflushed lines: (node, addr, value).
    pending: Vec<(usize, GAddr, u64)>,
    /// Written-back lines, which must survive.
    flushed: Vec<(GAddr, u64)>,
}

impl RackStorm {
    fn new(flac: &FlacRack) -> Self {
        let rack = flac.sim();
        let mut fs: Vec<MemFs> = (0..NODES)
            .map(|i| MemFs::mount(flac.fs_shared().clone(), rack.node(i)))
            .collect();
        fs[0].mkdir("/storm").expect("mkdir /storm");
        let server = MsgRpcServer::new(rack.node(SERVER_NODE), RPC_PORT);
        let clients = (0..NODES)
            .map(|i| {
                MsgRpcClient::new(
                    rack.node(i),
                    NodeId(SERVER_NODE),
                    RPC_PORT,
                    REPLY_PORT_BASE + i as u16,
                )
            })
            .collect();

        // Fault-boxed applications with checkpoint protection, and the
        // rack's shared kernel cells, so a crashed owner is re-elected.
        let mut orch = RecoveryOrchestrator::new();
        for cell in flac.sync_recovery() {
            orch.attach_sync(cell);
        }
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
            let state = format!("app-{app_id}");
            fbox.space()
                .write(&home_ctx, fbox.heap_va(0), state.as_bytes())
                .expect("seed app state");
            let protection = Protection::new(
                RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 },
                CheckpointManager::new(flac.alloc().clone(), flac.epochs().clone()),
            );
            orch.register(&home_ctx, fbox, protection)
                .expect("register");
        }

        let scrub_base = rack
            .global()
            .alloc(SCRUB_WORDS * 8, 64)
            .expect("scrub region");
        for w in 0..SCRUB_WORDS as u64 {
            let addr = GAddr(scrub_base.0 + w * 8);
            rack.node(0)
                .store_uncached_u64(addr, SCRUB_PATTERN ^ w)
                .expect("fill scrub region");
        }
        let scratch_base = rack
            .global()
            .alloc(64 * STEPS as usize + 64, 64)
            .expect("scratch region");
        RackStorm {
            fs,
            server,
            clients,
            orch,
            scrub_base,
            scratch_base,
            next_slot: 0,
            committed: Vec::new(),
            pending: Vec::new(),
            flushed: Vec::new(),
        }
    }

    /// The known-good word at `addr` of the scrub region.
    fn scrub_word(&self, addr: GAddr) -> u64 {
        SCRUB_PATTERN ^ ((addr.0 - self.scrub_base.0) / 8)
    }

    /// One echo RPC from `caller`, draining the server on every retry.
    fn echo(&mut self, caller: usize, args: &[u8]) -> Result<Vec<u8>, SimError> {
        let server = &mut self.server;
        self.clients[caller].call_with_retry(args, &mut |_| {
            server
                .drain(&mut |req: &[u8]| [b"ack:".as_slice(), req].concat())
                .map(|_| ())
        })
    }
}

impl Hooks for RackStorm {
    const TALLIES: &'static str = "fs_commits fs_degraded fs_replays rpc_issued rpc_acked \
        rpc_degraded rpc_executed rpc_dup_suppressed scrubs scratch_lost reelections";

    /// Every op class, with the scrub region as the poison target.
    fn shape(&self) -> StormShape {
        StormShape::Full {
            poison_region: (self.scrub_base, SCRUB_WORDS * 8),
        }
    }

    fn workload(&mut self, s: &mut Storm, step: u32, rack: &Rack) -> String {
        // Flush the oldest pending dirty line whose node is live.
        let mut note = String::new();
        if let Some(i) = self
            .pending
            .iter()
            .position(|&(node, _, _)| live(rack, node))
        {
            let (node, addr, value) = self.pending.remove(i);
            rack.node(node).writeback(addr, 8);
            self.flushed.push((addr, value));
            note = format!(", flushed {addr}");
        }
        // A committed file write from the round-robin writer.
        let writer = round_robin(rack, step).expect("MIN_LIVE_NODES >= 2");
        let path = format!("/storm/f{:04}", self.committed.len());
        let content = format!("s{:016x}-{step:04}", s.seed);
        if let Err(e) = self.fs[writer].write_file(&path, content.as_bytes()) {
            s.add("fs_degraded", 1);
            return format!("fs write degraded on n{writer}: {e}{note}");
        }
        self.committed.push((path.clone(), content));
        s.add("fs_commits", 1);
        // An RPC from the first live non-server node.
        let caller = (0..NODES).find(|&k| live(rack, k) && k != SERVER_NODE);
        if !live(rack, SERVER_NODE) {
            s.add("rpc_degraded", 1);
            return format!("wrote {path} on n{writer}; rpc skipped (server down){note}");
        }
        let Some(caller) = caller else {
            s.add("rpc_degraded", 1);
            return format!("wrote {path} on n{writer}; rpc skipped (no caller){note}");
        };
        s.add("rpc_issued", 1);
        let args = format!("step-{step:04}");
        match self.echo(caller, args.as_bytes()) {
            Ok(reply) if reply == format!("ack:{args}").into_bytes() => {
                s.add("rpc_acked", 1);
                format!("wrote {path} on n{writer}; rpc acked from n{caller}{note}")
            }
            Ok(_) => {
                s.fail(format!("step {step}: rpc reply mismatch for {args}"));
                format!("rpc reply MISMATCH on step {step}")
            }
            Err(e) => {
                s.add("rpc_degraded", 1);
                format!("wrote {path} on n{writer}; rpc degraded from n{caller}: {e}{note}")
            }
        }
    }

    fn crash(&mut self, s: &mut Storm, step: u32, node: NodeId, rack: &Rack) -> String {
        let node_idx = node.0;
        // Dirty, un-written-back lines on the victim die with it.
        let before = self.pending.len();
        self.pending.retain(|&(owner, _, _)| owner != node_idx);
        let lost = (before - self.pending.len()) as u64;
        s.add("scratch_lost", lost);
        // Re-elect every fault box homed there onto a survivor.
        let rescuer = lowest_live(rack);
        match self.orch.handle_node_crash(&rack.node(rescuer), node) {
            Ok(rehomed) => {
                s.add("reelections", rehomed.len() as u64);
                format!(
                    "crash n{node_idx}: {lost} dirty lines lost, re-homed {rehomed:?} onto n{rescuer}"
                )
            }
            Err(e) => {
                s.fail(format!("step {step}: re-election failed: {e}"));
                format!("crash n{node_idx}: re-election FAILED: {e}")
            }
        }
    }

    fn restart(&mut self, s: &mut Storm, step: u32, node: usize) -> String {
        // The restarted node trusts nothing it held: replay the journal
        // and check it against the live metadata.
        match self.fs[node].recover() {
            Ok(replayed) => {
                s.add("fs_replays", 1);
                format!("restart n{node}: journal replayed {replayed} entries")
            }
            Err(e) => {
                s.fail(format!("step {step}: journal replay failed: {e}"));
                format!("restart n{node}: journal replay FAILED: {e}")
            }
        }
    }

    fn other(&mut self, s: &mut Storm, step: u32, op: StormOp, rack: &Rack) -> String {
        match op {
            StormOp::DelayedWriteback { node } => {
                let node_idx = node.0;
                if !live(rack, node_idx) {
                    return format!("dirty write skipped: n{node_idx} down");
                }
                let addr = GAddr(self.scratch_base.0 + self.next_slot * 64);
                self.next_slot += 1;
                let value = s.seed ^ (u64::from(step) << 32) ^ addr.0;
                match rack.node(node_idx).write_u64(addr, value) {
                    Ok(()) => {
                        self.pending.push((node_idx, addr, value));
                        format!("dirty write on n{node_idx} @ {addr} (unflushed)")
                    }
                    Err(e) => format!("dirty write failed on n{node_idx}: {e}"),
                }
            }
            StormOp::FailLink { from, to } => {
                format!("link n{}->n{} severed; workload continues", from.0, to.0)
            }
            StormOp::RestoreLink { from, to } => format!("link n{}->n{} restored", from.0, to.0),
            StormOp::PoisonWord { addr } => {
                // Scrub and repair from the known-good pattern.
                let fixer = lowest_live(rack);
                let ctx = rack.node(fixer);
                ctx.global().scrub(addr, 8);
                match ctx.store_uncached_u64(addr, self.scrub_word(addr)) {
                    Ok(()) => {
                        s.add("scrubs", 1);
                        format!("poison @ {addr}: scrubbed and repaired by n{fixer}")
                    }
                    Err(e) => {
                        s.fail(format!("step {step}: scrub failed at {addr}: {e}"));
                        format!("poison @ {addr}: repair FAILED: {e}")
                    }
                }
            }
            _ => unreachable!("the driver dispatches {op}"),
        }
    }

    fn heal(&mut self, s: &mut Storm, rack: &Rack) {
        // Flush every remaining dirty line (all nodes live).
        while let Some((node, addr, value)) = self.pending.pop() {
            rack.node(node).writeback(addr, 8);
            self.flushed.push((addr, value));
        }

        // Invariant 1: no lost committed writes.
        let n0 = rack.node(0);
        for (path, content) in &self.committed {
            match self.fs[0].read_file(path) {
                Ok(data) if data == content.as_bytes() => {}
                Ok(data) => s.fail(format!(
                    "committed {path} corrupted: want {content:?}, got {:?}",
                    String::from_utf8_lossy(&data)
                )),
                Err(e) => s.fail(format!("committed {path} unreadable: {e}")),
            }
        }
        let scrub = (0..SCRUB_WORDS as u64).map(|w| {
            let addr = GAddr(self.scrub_base.0 + w * 8);
            (addr, self.scrub_word(addr))
        });
        for (addr, want) in self.flushed.iter().copied().chain(scrub) {
            match n0.load_uncached_u64(addr) {
                Ok(got) if got == want => {}
                Ok(got) => s.fail(format!("word {addr} lost: want {want:#x}, got {got:#x}")),
                Err(e) => s.fail(format!("word {addr} unreadable: {e}")),
            }
        }

        // Invariant 2: no double-delivery.
        let executed = self.server.executed();
        let (acked, issued) = (*s.tally("rpc_acked"), *s.tally("rpc_issued"));
        if !(acked..=issued).contains(&executed) {
            s.fail(format!(
                "rpc executed {executed}, outside acked {acked} ..= issued {issued}"
            ));
        }
        s.add("rpc_executed", executed);
        s.add("rpc_dup_suppressed", self.server.dup_suppressed());

        // Invariant 3: liveness after recovery.
        for (i, mount) in self.fs.iter_mut().enumerate() {
            let path = format!("/storm/liveness-n{i}");
            match mount.write_file(&path, b"alive") {
                Ok(_) => match mount.read_file(&path) {
                    Ok(data) if data == b"alive" => {}
                    _ => s.fail(format!("post-heal read failed on node {i}")),
                },
                Err(e) => s.fail(format!("post-heal write failed on node {i}: {e}")),
            }
        }
        match self.echo(0, b"post-heal") {
            Ok(reply) if reply == b"ack:post-heal" => s.add("rpc_issued", 1),
            other => s.fail(format!("post-heal rpc failed: {other:?}")),
        }
        for app_id in 0..APP_HOMES.len() as u64 {
            let fbox = self.orch.fault_box(app_id).expect("registered");
            let (want, home) = (format!("app-{app_id}"), fbox.home().0);
            let mut buf = vec![0u8; want.len()];
            match fbox
                .space()
                .read(&rack.node(home), fbox.heap_va(0), &mut buf)
            {
                Ok(()) if buf == want.as_bytes() => {}
                other => s.fail(format!("app {app_id} state lost on n{home}: {other:?}")),
            }
        }
    }
}

/// Rack-wide shootdown from the tiering node that only expects the live
/// nodes to participate (dead peers have no stale TLB; acks from
/// stragglers are not awaited).
fn shootdown_live(
    tlbs: &mut [Tlb],
    rack: &Rack,
    asid: u64,
    vpn: u64,
    span: u64,
) -> Result<(), SimError> {
    let peers: Vec<NodeId> = tlbs.iter().map(Tlb::node_id).collect();
    let expected = tlbs[TIER_NODE].begin_shootdown_range(&peers, asid, vpn, span)?;
    for (i, tlb) in tlbs.iter_mut().enumerate() {
        if i != TIER_NODE && live(rack, i) {
            tlb.service_shootdowns()?;
        }
    }
    let _ = tlbs[TIER_NODE].collect_acks(expected);
    Ok(())
}

/// The tiering campaign's workload state. The old copy of a page stays
/// authoritative until its migration commits, so a survivor's abort of
/// a crashed node's migration loses nothing.
struct TieringStorm {
    n0: Arc<NodeCtx>,
    space: AddressSpace,
    frames: FrameAllocator,
    pool: LocalFramePool,
    tlbs: Vec<Tlb>,
    /// The last acknowledged content of every page.
    model: Vec<Vec<u8>>,
    /// vpn → local frame of pages promoted onto [`TIER_NODE`] (ordered,
    /// so the demotion victim — the smallest vpn — is deterministic).
    promoted: BTreeMap<u64, LAddr>,
    /// One in-flight staged migration: (migration, promote?).
    in_flight: Option<(Migration, bool)>,
    mig_cursor: u64,
}

impl TieringStorm {
    fn new(flac: &FlacRack) -> Self {
        let rack = flac.sim();
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
        let mut model = Vec::new();
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
        TieringStorm {
            tlbs: (0..NODES).map(|i| Tlb::new(rack.node(i), 64)).collect(),
            n0,
            space,
            frames,
            pool: LocalFramePool::new(),
            model,
            promoted: BTreeMap::new(),
            in_flight: None,
            mig_cursor: 0,
        }
    }

    fn release(&mut self, ctx: &NodeCtx, frame: PhysFrame) {
        match frame {
            PhysFrame::Global(g) => self.frames.free(ctx, g),
            PhysFrame::Local(_, l) => self.pool.free(l, PageSize::Base),
        }
    }

    /// Roll `m` back from `ctx` and free its destination frame.
    fn abort(&mut self, s: &mut Storm, ctx: &Arc<NodeCtx>, m: &Migration) {
        m.abort(ctx, &self.space).expect("abort");
        self.release(ctx, m.new_frame());
        s.add("aborts", 1);
    }

    /// One migration micro-step on the tiering node; returns the log
    /// note.
    fn migrate(&mut self, s: &mut Storm, rack: &Rack) -> String {
        let n0 = self.n0.clone();
        let Some((mut m, promote)) = self.in_flight.take() else {
            // Choose the next migration: demote the smallest promoted vpn
            // when at budget, else promote the cursor's next global page.
            let (vpn, dst, promote) = if self.promoted.len() >= TIER_BUDGET_PAGES {
                let vpn = *self.promoted.keys().next().expect("non-empty");
                let global = self.frames.alloc(&n0).expect("frame");
                (vpn, PhysFrame::Global(global), false)
            } else {
                let vpn = self.mig_cursor % TIER_PAGES;
                self.mig_cursor += 1;
                if self.promoted.contains_key(&vpn) {
                    return format!(", vpn {vpn} already local");
                }
                let local = self.pool.alloc(&n0, PageSize::Base).expect("local frame");
                (vpn, PhysFrame::Local(n0.id(), local), true)
            };
            let what = if promote { "promote" } else { "demote" };
            return match Migration::begin(&n0, &self.space, vpn, PageSize::Base, dst) {
                Ok(m) => {
                    self.in_flight = Some((m, promote));
                    format!(", {what} of vpn {vpn} began")
                }
                Err(e) => format!(", {what} begin failed: {e}"),
            };
        };
        let vpn = m.vpn();
        if m.copy(&n0, &self.space).is_err() {
            self.abort(s, &n0, &m);
            return format!(", copy of vpn {vpn} failed; aborted");
        }
        let dst = m.new_frame();
        let tlbs = &mut self.tlbs;
        let old = m
            .commit(&n0, &self.space, &mut |asid, vpn, span| {
                shootdown_live(tlbs, rack, asid, vpn, span)
            })
            .expect("commit");
        self.release(&n0, old[0].frame);
        if promote {
            let PhysFrame::Local(_, l) = dst else {
                unreachable!("promotion targets a local frame")
            };
            self.promoted.insert(vpn, l);
            s.add("promotions", 1);
            format!(", promoted vpn {vpn}")
        } else {
            self.promoted.remove(&vpn);
            s.add("demotions", 1);
            format!(", demoted vpn {vpn}")
        }
    }
}

impl Hooks for TieringStorm {
    const TALLIES: &'static str = "writes_committed writes_skipped promotions demotions aborts";

    fn workload(&mut self, s: &mut Storm, step: u32, rack: &Rack) -> String {
        let note = if live(rack, TIER_NODE) {
            self.migrate(s, rack)
        } else {
            format!(", tier idle (n{TIER_NODE} down)")
        };
        // A committed write to a round-robin page from the node that can
        // reach its frame.
        let vpn = u64::from(step) % TIER_PAGES;
        let lowest_live = lowest_live(rack);
        let pte = self
            .space
            .translate(&rack.node(lowest_live), VirtAddr::from_vpn(vpn))
            .expect("walk")
            .expect("mapped");
        if pte.migrating {
            s.add("writes_skipped", 1);
            return format!("write vpn {vpn} skipped: migrating{note}");
        }
        let writer = match pte.frame {
            PhysFrame::Local(home, _) if !live(rack, home.0) => {
                s.add("writes_skipped", 1);
                return format!("write vpn {vpn} skipped: local home n{} down{note}", home.0);
            }
            PhysFrame::Local(home, _) => home.0,
            PhysFrame::Global(_) => lowest_live,
        };
        let content = format!("s{:016x}-{step:04}", s.seed).into_bytes();
        match self
            .space
            .write(&rack.node(writer), VirtAddr::from_vpn(vpn), &content)
        {
            Ok(()) => {
                self.model[vpn as usize] = content;
                s.add("writes_committed", 1);
                format!("wrote vpn {vpn} from n{writer}{note}")
            }
            Err(e) => {
                s.add("writes_skipped", 1);
                format!("write vpn {vpn} degraded on n{writer}: {e}{note}")
            }
        }
    }

    fn crash(&mut self, s: &mut Storm, _step: u32, node: NodeId, rack: &Rack) -> String {
        let node_idx = node.0;
        if node_idx != TIER_NODE {
            return format!("crash n{node_idx}: workload continues");
        }
        // The crash-consistency story: a survivor rolls back any
        // migration the dead node left mid-flight.
        let Some((m, _)) = self.in_flight.take() else {
            return format!("crash n{node_idx}: tiering paused, no migration in flight");
        };
        let rescuer = lowest_live(rack);
        self.abort(s, &rack.node(rescuer), &m);
        format!(
            "crash n{node_idx}: survivor n{rescuer} aborted mid-flight \
             migration of vpn {} (old copy authoritative)",
            m.vpn()
        )
    }

    fn restart(&mut self, _s: &mut Storm, _step: u32, node: usize) -> String {
        // A restarted node boots with a cold TLB.
        self.tlbs[node].flush_asid(TIER_ASID);
        format!("restart n{node}: TLB cold, tiering resumes")
    }

    fn heal(&mut self, s: &mut Storm, rack: &Rack) {
        // Roll back any still-open migration window.
        if let Some((m, _)) = self.in_flight.take() {
            let n0 = self.n0.clone();
            self.abort(s, &n0, &m);
        }
        for vpn in 0..TIER_PAGES {
            let want = &self.model[vpn as usize];
            let pte = match self.space.translate(&self.n0, VirtAddr::from_vpn(vpn)) {
                Ok(Some(pte)) => pte,
                other => {
                    s.fail(format!("vpn {vpn} unmapped after storm: {other:?}"));
                    continue;
                }
            };
            // Invariant 2: no torn mappings.
            if pte.migrating {
                s.fail(format!("vpn {vpn} left with the Migrating guard set"));
                continue;
            }
            // Invariant 1: no lost committed writes, read through the
            // frame's home so local pages are reachable.
            let reader = match pte.frame {
                PhysFrame::Local(home, _) => rack.node(home.0),
                PhysFrame::Global(_) => self.n0.clone(),
            };
            let mut buf = vec![0u8; want.len()];
            match self.space.read(&reader, VirtAddr::from_vpn(vpn), &mut buf) {
                Ok(()) if &buf == want => {}
                Ok(()) => s.fail(format!(
                    "vpn {vpn} corrupted: want {:?}, got {:?}",
                    String::from_utf8_lossy(want),
                    String::from_utf8_lossy(&buf)
                )),
                Err(e) => s.fail(format!("vpn {vpn} unreadable: {e}")),
            }
        }
        // Invariant 3: budget accounting.
        if self.promoted.len() > TIER_BUDGET_PAGES {
            s.fail(format!(
                "local tier over budget: {} > {TIER_BUDGET_PAGES} pages",
                self.promoted.len()
            ));
        }
    }
}

/// The shared ledger under the sync-cell campaigns: committed entries
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

/// The state both sync-cell campaigns share: the cell, attached to the
/// recovery orchestrator the way `FlacRack` wires it, and the model of
/// acknowledged ops.
struct Ledger {
    cell: Arc<SyncCell<SyncLedger>>,
    orch: RecoveryOrchestrator,
    /// Acknowledged ops keyed by commit index.
    model: Vec<(u64, (u32, u32))>,
}

impl Ledger {
    fn new(rack: &Rack, name: &'static str, policy: SyncPolicy) -> Self {
        // A generously sized log and no gc() calls: the whole campaign
        // must stay replayable.
        let cell = SyncCell::alloc(
            rack.global(),
            name,
            SyncCellConfig::new(NODES, policy).with_log(4096, 48),
            SyncLedger::default(),
        )
        .expect("cell");
        let mut orch = RecoveryOrchestrator::new();
        orch.attach_sync(cell.clone());
        Ledger {
            cell,
            orch,
            model: Vec::new(),
        }
    }

    fn commit(&mut self, s: &mut Storm, idx: u64, node: usize, step: u32) {
        self.model.push((idx, (node as u32, step)));
        s.add("ops_committed", 1);
    }

    /// The invariants of both sync-cell campaigns: the cell holds
    /// exactly the acknowledged ops in commit order (none lost or
    /// double-applied), a from-scratch log replay reproduces them, and
    /// a post-heal update is visible.
    fn heal(&mut self, s: &mut Storm, rack: &Rack) {
        self.model.sort_unstable_by_key(|&(idx, _)| idx);
        let expected: Vec<(u32, u32)> = self.model.iter().map(|&(_, op)| op).collect();
        let (cell, n0) = (&self.cell, rack.node(0));
        let entries = cell.read(&n0, |l| l.entries.clone()).expect("final read");
        if entries != expected {
            s.fail(format!(
                "committed ops lost, duplicated, or reordered: cell has {} entries, model {}",
                entries.len(),
                expected.len()
            ));
        }
        let (replayed_state, replayed) = cell.replay(&n0, SyncLedger::default()).expect("replay");
        s.add("replayed", replayed);
        if replayed_state.entries != expected {
            s.fail(format!(
                "log replay diverged: {} replayed entries vs {} committed",
                replayed_state.entries.len(),
                expected.len()
            ));
        }
        let want = expected.len() + 1;
        match cell.update(&n0, &sync_op(0, STEPS)) {
            Ok(_) => {
                let len = cell.read(&n0, |l| l.entries.len()).expect("post-heal read");
                if len != want {
                    s.fail(format!(
                        "post-heal update invisible: {len} entries vs {want} expected"
                    ));
                }
            }
            Err(e) => s.fail(format!("post-heal update failed: {e}")),
        }
    }
}

/// Every live node commits into one delegated cell while the storm
/// crashes the delegation owner; a survivor re-elects it and drains the
/// committed op log.
struct Delegated(Ledger);

impl Hooks for Delegated {
    const TALLIES: &'static str = "ops_committed ops_skipped reelections replayed";

    fn workload(&mut self, s: &mut Storm, step: u32, rack: &Rack) -> String {
        // A round-robin live node commits one update; a second live node
        // reads and must see every previously committed op.
        let Some(writer) = round_robin(rack, step) else {
            s.add("ops_skipped", 1);
            return "update skipped: no live writer".to_string();
        };
        let cell = self.0.cell.clone();
        match cell.update(&rack.node(writer), &sync_op(writer, step)) {
            Ok(idx) => {
                self.0.commit(s, idx, writer, step);
                let reader = (0..NODES)
                    .rev()
                    .find(|&k| live(rack, k))
                    .expect("live reader");
                let seen = cell
                    .read(&rack.node(reader), |l| l.entries.len())
                    .expect("read");
                if seen < self.0.model.len() {
                    s.fail(format!(
                        "step {step}: n{reader} sees {seen} < {} committed",
                        self.0.model.len()
                    ));
                }
                format!("op {idx} committed from n{writer}, n{reader} sees {seen}")
            }
            Err(e) => {
                s.add("ops_skipped", 1);
                format!("update degraded on n{writer}: {e}")
            }
        }
    }

    fn crash(&mut self, s: &mut Storm, step: u32, node: NodeId, rack: &Rack) -> String {
        let node_idx = node.0;
        let rescuer = lowest_live(rack);
        let ctx = rack.node(rescuer);
        let owner_before = self.0.cell.owner_node(&ctx).expect("owner");
        if let Err(e) = self.0.orch.handle_node_crash(&ctx, node) {
            s.fail(format!("step {step}: sync recovery failed: {e}"));
            return format!("crash n{node_idx}: sync recovery FAILED: {e}");
        }
        let owner_after = self.0.cell.owner_node(&ctx).expect("owner");
        if let Some(owner) = owner_after.filter(|&o| !rack.is_alive(o)) {
            s.fail(format!(
                "step {step}: after n{node_idx}'s crash the owner word names dead n{}",
                owner.0
            ));
        }
        if owner_before != Some(node) {
            return format!("crash n{node_idx}: owner {owner_before:?} unaffected");
        }
        s.add("reelections", 1);
        format!(
            "crash n{node_idx}: delegation owner died; n{rescuer} re-elected \
             (owner now {owner_after:?})"
        )
    }

    fn restart(&mut self, _s: &mut Storm, _step: u32, node: usize) -> String {
        format!("restart n{node}: rejoins as a plain client")
    }

    fn heal(&mut self, s: &mut Storm, rack: &Rack) {
        self.0.heal(s, rack);
    }
}

/// Live nodes drive the node-replicated cell's split publication
/// protocol (publish → combine → poll), and every third workload step
/// with four live nodes kills one mid-protocol: a combiner before the
/// tail CAS (re-election must commit every stranded publication once),
/// a combiner after the append (re-election must not apply the batch
/// twice), or a publisher holding a flushed publication (recovery must
/// commit it once and leave no header pending).
struct NodeReplicated(Ledger);

/// The two combiner crash windows `mid_batch` arms, on a combine of the
/// two one-op publications it strands (neither spills past its header
/// line).
const COMBINE_WINDOWS: [CombineWindow; 2] =
    [CombineWindow::BeforeAppend, CombineWindow::AfterAppend];

impl NodeReplicated {
    /// Strand two publications, crash the last live node inside its
    /// combine (or after it publishes), recover, restart it and check
    /// that every stranded op landed exactly once.
    fn mid_batch(&mut self, s: &mut Storm, step: u32, live: &[usize], rack: &Rack) -> String {
        let cell = self.0.cell.clone();
        let window = (step / 3) % 3;
        let publishers = [live[0], live[1]];
        let victim = *live.last().expect("nonempty");
        for &p in &publishers {
            if let Err(e) = cell.nr_publish(&rack.node(p), &sync_op(p, step)) {
                s.fail(format!("step {step}: publish failed on n{p}: {e}"));
                return format!("mid-batch stage failed: publish on n{p}: {e}");
            }
        }
        let (victim_ctx, witness) = (rack.node(victim), rack.node(publishers[0]));
        if window < 2 {
            let fuse = COMBINE_WINDOWS[window as usize];
            let want_ran = fuse.issued_before(2, 2, false);
            let (tail, before) = (
                cell.committed(&witness).expect("tail"),
                victim_ctx.stats().snapshot().fabric_ops(),
            );
            rack.faults()
                .arm_crash(NodeId(victim), fuse.fuse_op(2, 2, false));
            let died = matches!(cell.nr_combine(&victim_ctx), Err(SimError::NodeDown { .. }));
            let after = victim_ctx.stats().snapshot().fabric_ops();
            let ran = [0, 1, 2].map(|i| after[i] - before[i]);
            if !died || ran != want_ran {
                s.fail(format!(
                    "step {step}: n{victim}'s combine issued {ran:?} (atomics, reads, writes) \
                     by its fuse in window {window}, want {want_ran:?} and a crash"
                ));
            }
            if !died {
                // The fuse never burnt: crash the node here so the rest of
                // the step runs on the state the campaign models.
                rack.faults().crash_node(NodeId(victim), u64::from(step));
            }
            // Window 0 committed nothing, window 1 the whole batch; either
            // way both publications still read `PENDING`.
            let landed = cell.committed(&witness).expect("tail") - tail;
            let pending = cell.pending_publishers(&witness).expect("headers");
            let want: Vec<NodeId> = publishers.iter().map(|&p| NodeId(p)).collect();
            if landed != 2 * u64::from(window) || pending != want {
                s.fail(format!(
                    "step {step}: crash window {window} left {landed} ops committed and \
                     {pending:?} pending"
                ));
            }
        } else {
            if let Err(e) = cell.nr_publish(&victim_ctx, &sync_op(victim, step)) {
                s.fail(format!("step {step}: crash stage failed on n{victim}: {e}"));
                return format!("mid-batch stage failed on n{victim}: {e}");
            }
            rack.faults().crash_node(NodeId(victim), u64::from(step));
        }
        let rescuer = lowest_live(rack);
        if let Err(e) = self
            .0
            .orch
            .handle_node_crash(&rack.node(rescuer), NodeId(victim))
        {
            s.fail(format!("step {step}: mid-batch recovery failed: {e}"));
            return format!("mid-batch recovery FAILED: {e}");
        }
        let mut stranded = publishers.to_vec();
        if window < 2 {
            s.add("reelections", 1);
        } else {
            s.add("publisher_deaths", 1);
            stranded.push(victim);
        }
        match cell.pending_publishers(&rack.node(rescuer)) {
            Ok(pending) if pending.is_empty() => {}
            pending => s.fail(format!(
                "step {step}: publications {pending:?} still pending after recovery"
            )),
        }
        rack.faults().restart_node(NodeId(victim), u64::from(step));
        for &p in &stranded {
            match cell.nr_poll(&rack.node(p)) {
                Ok(Some(idx)) => self.0.commit(s, idx, p, step),
                other => s.fail(format!(
                    "step {step}: op from n{p} lost across combiner crash: {other:?}"
                )),
            }
        }
        let seen = cell
            .read(&rack.node(rescuer), |l| l.entries.len())
            .expect("read");
        if seen != self.0.model.len() {
            s.fail(format!(
                "step {step}: {seen} entries vs {} committed (lost or double-applied)",
                self.0.model.len()
            ));
        }
        let (who, when) = match window {
            0 => ("combiner", "mid-batch (before tail CAS)"),
            1 => ("combiner", "mid-batch (after append)"),
            _ => ("publisher", "holding a flushed publication"),
        };
        format!(
            "{who} n{victim} died {when}; n{rescuer} recovered {} stranded ops, \
             {seen} total",
            stranded.len()
        )
    }
}

impl Hooks for NodeReplicated {
    const TALLIES: &'static str = "ops_committed ops_skipped reelections publisher_deaths replayed";

    fn workload(&mut self, s: &mut Storm, step: u32, rack: &Rack) -> String {
        let live: Vec<usize> = (0..NODES).filter(|&k| live(rack, k)).collect();
        if step % 3 == 2 && live.len() >= 4 {
            return self.mid_batch(s, step, &live, rack);
        }
        // Clean round: round-robin publisher, a different live combiner
        // drains, the publisher polls its index.
        let Some(writer) = round_robin(rack, step) else {
            s.add("ops_skipped", 1);
            return "publish skipped: no live writer".to_string();
        };
        let cell = self.0.cell.clone();
        if let Err(e) = cell.nr_publish(&rack.node(writer), &sync_op(writer, step)) {
            s.add("ops_skipped", 1);
            return format!("publish degraded on n{writer}: {e}");
        }
        let combiner = live
            .iter()
            .rev()
            .copied()
            .find(|&k| k != writer)
            .unwrap_or(writer);
        match cell.nr_combine(&rack.node(combiner)) {
            Ok(combined) => match cell.nr_poll(&rack.node(writer)) {
                Ok(Some(idx)) => {
                    self.0.commit(s, idx, writer, step);
                    format!(
                        "op {idx} published from n{writer}, combined ({combined}) by \
                             n{combiner}"
                    )
                }
                other => {
                    s.fail(format!(
                        "step {step}: publication from n{writer} unacknowledged: {other:?}"
                    ));
                    format!("publication from n{writer} UNACKNOWLEDGED")
                }
            },
            Err(e) => {
                s.fail(format!("step {step}: combine failed on n{combiner}: {e}"));
                format!("combine FAILED on n{combiner}: {e}")
            }
        }
    }

    fn crash(&mut self, s: &mut Storm, step: u32, node: NodeId, rack: &Rack) -> String {
        let rescuer = lowest_live(rack);
        match self.0.orch.handle_node_crash(&rack.node(rescuer), node) {
            Ok(_) => format!("crash n{}: slots drained by n{rescuer}", node.0),
            Err(e) => {
                s.fail(format!("step {step}: sync recovery failed: {e}"));
                format!("crash n{}: sync recovery FAILED: {e}", node.0)
            }
        }
    }

    fn restart(&mut self, _s: &mut Storm, _step: u32, node: usize) -> String {
        format!("restart n{node}: rejoins with a cold replica")
    }

    fn heal(&mut self, s: &mut Storm, rack: &Rack) {
        self.0.heal(s, rack);
    }
}

/// The store campaign's workload state. Crashes route through the
/// recovery orchestrator with the store attached, so a dead fetcher's
/// in-flight claims are aborted by an `ABORT` op in the shared log and
/// survivors re-claim the work.
struct StoreStorm {
    /// Overlapping catalogue: image k's layer seeds are 100+2k ..
    /// 100+2k+4, so adjacent images share two of four layers.
    images: Vec<ContainerImage>,
    catalogue: HashSet<u64>,
    store: Arc<ChunkStore>,
    orch: RecoveryOrchestrator,
    /// Claims won but not yet completed: (node, won hashes). The window
    /// between the two phases is exactly where a crash hurts.
    pending: Vec<(usize, Vec<u64>)>,
}

impl StoreStorm {
    fn new(rack: &Rack) -> Self {
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
        let mut catalogue = HashSet::new();
        for img in &images {
            img.publish(&backends);
            catalogue.extend(img.chunk_hashes());
        }
        let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(rack.global().clone())));
        // A generously sized log and no gc() calls: the whole campaign
        // must stay replayable.
        let store = ChunkStore::alloc(
            rack.global(),
            backends,
            dedup,
            StoreConfig::new(NODES)
                .with_log(2048, 1024)
                .with_claim_batch(STORE_CLAIM_LIMIT),
        )
        .expect("store");
        let mut orch = RecoveryOrchestrator::new();
        orch.attach_sync(store.clone());
        StoreStorm {
            images,
            catalogue,
            store,
            orch,
            pending: Vec::new(),
        }
    }
}

impl Hooks for StoreStorm {
    const TALLIES: &'static str = "claims_won committed aborted rack_hits skipped";

    fn workload(&mut self, s: &mut Storm, step: u32, rack: &Rack) -> String {
        let Some(worker) = round_robin(rack, step) else {
            s.add("skipped", 1);
            return "store step skipped: no live worker".to_string();
        };
        let ctx = rack.node(worker);
        // Finish this node's oldest pending fetch first (the single-flight
        // discipline: one node never claims more while sitting on
        // won-but-unfetched work).
        if let Some(i) = self.pending.iter().position(|&(node, _)| node == worker) {
            let (_, won) = self.pending.remove(i);
            return match self.store.complete(&ctx, &won) {
                Ok(done) => {
                    s.add("committed", done.committed);
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
                    s.fail(format!("step {step}: complete failed on n{worker}: {e}"));
                    format!("n{worker} complete FAILED: {e}")
                }
            };
        }
        // Otherwise claim a slice of the step's image. Hashes other nodes
        // hold in `Fetching` stay theirs (single-flight); this node only
        // takes what is absent.
        let image = step as usize % STORE_IMAGES;
        let all = self.images[image].chunk_hashes();
        let off = (step as usize * STORE_CLAIM_LIMIT) % all.len().max(1);
        let hashes: Vec<u64> = all
            .iter()
            .cycle()
            .skip(off)
            .take(STORE_CLAIM_LIMIT)
            .copied()
            .collect();
        match self.store.claim(&ctx, &hashes) {
            Ok(outcome) => {
                s.add("claims_won", outcome.won.len() as u64);
                s.add("rack_hits", outcome.present.len() as u64);
                let msg = format!(
                    "n{worker} claim on img-{image}: won {}, present {}, in-flight {}",
                    outcome.won.len(),
                    outcome.present.len(),
                    outcome.in_flight.len()
                );
                if !outcome.won.is_empty() {
                    self.pending.push((worker, outcome.won));
                }
                msg
            }
            Err(e) => {
                s.fail(format!("step {step}: claim failed on n{worker}: {e}"));
                format!("n{worker} claim FAILED: {e}")
            }
        }
    }

    fn crash(&mut self, s: &mut Storm, step: u32, node: NodeId, rack: &Rack) -> String {
        let node_idx = node.0;
        // The dead fetcher's won-but-unfetched work dies with it;
        // recovery aborts its index claims so survivors re-claim.
        let before = self.pending.len();
        self.pending.retain(|&(owner, _)| owner != node_idx);
        let dropped = before - self.pending.len();
        let rescuer = lowest_live(rack);
        match self.orch.handle_node_crash(&rack.node(rescuer), node) {
            Ok(_) => format!(
                "crash n{node_idx} mid-fetch: {dropped} pending batch(es) dropped, \
                 claims aborted by n{rescuer}"
            ),
            Err(e) => {
                s.fail(format!("step {step}: store recovery failed: {e}"));
                format!("crash n{node_idx}: store recovery FAILED: {e}")
            }
        }
    }

    fn restart(&mut self, _s: &mut Storm, _step: u32, node: usize) -> String {
        format!("restart n{node}: rejoins with no claims")
    }

    fn heal(&mut self, s: &mut Storm, rack: &Rack) {
        // Resolve every still-pending claim, then a survivor finishes all
        // the starts (every claim is now completed or owned by a live
        // node that just completed it, so ensure cannot block on a dead
        // fetcher).
        let n0 = rack.node(0);
        while let Some((node, won)) = self.pending.pop() {
            match self.store.complete(&rack.node(node), &won) {
                Ok(done) => s.add("committed", done.committed),
                Err(e) => s.fail(format!("post-heal complete on n{node} failed: {e}")),
            }
        }
        for img in &self.images {
            match self.store.ensure(&n0, &img.chunk_hashes()) {
                Ok(rep) => s.add("committed", rep.fetched),
                Err(e) => s.fail(format!("post-heal ensure failed: {e}")),
            }
        }

        // Invariant 1: no duplicate downloads, rack-wide.
        for &h in &self.catalogue {
            let fetches = self.store.backends().fetch_count(h);
            if fetches != 1 {
                s.fail(format!(
                    "chunk {h:#018x} shipped {fetches} times — single-flight broken"
                ));
            }
        }

        // Invariant 2: index consistent after the heal.
        let (fetching, present) = self
            .store
            .peek_index(|st| (st.fetching_count(), st.present_count()));
        let frames = self.store.dedup().stats().unique_frames as usize;
        let unique = self.catalogue.len();
        if (fetching, present, frames) != (0, unique, unique) {
            s.fail(format!(
                "index has {fetching} fetching and {present} present chunks, deduper \
                 {frames} frames, for {unique} unique chunks"
            ));
        }

        // Invariant 3: log replay reproduces the identical present map.
        match self.store.replay_matches(&n0) {
            Ok(true) => {}
            Ok(false) => s.fail("log replay diverged from the live index".into()),
            Err(e) => s.fail(format!("log replay failed: {e}")),
        }
        s.add("aborted", self.store.stats().claims_aborted);
    }
}

/// One swept run and the event log of its rerun from the same seed.
#[derive(Debug, Clone)]
pub struct SweptRun {
    /// The first run.
    pub report: CampaignReport,
    /// The rerun's [`CampaignReport::log_text`]; must equal the first's.
    pub rerun_log: String,
}

/// Every seed of [`SEEDS`] of `campaign`, each run twice.
fn sweep(campaign: Campaign) -> Vec<SweptRun> {
    SEEDS
        .map(|seed| SweptRun {
            report: campaign.run(seed),
            rerun_log: campaign.run(seed).log_text,
        })
        .collect()
}

/// The `storm` section: every campaign in [`Campaign::ALL`] order, each
/// over [`SEEDS`], each seed run twice.
pub fn run() -> Vec<SweptRun> {
    Campaign::ALL.into_iter().flat_map(sweep).collect()
}

/// The tally each campaign's headline event bumps, and the least its
/// sum over the sweep must reach: the crash-recovery path the campaign
/// exists to exercise.
const HEADLINES: [(Campaign, &str, u64); 6] = [
    (Campaign::Rack, "fs_commits", 1),
    (Campaign::Tiering, "aborts", 1),
    (Campaign::Delegated, "reelections", 1),
    (Campaign::NodeReplicated, "reelections", 2),
    (Campaign::NodeReplicated, "publisher_deaths", 1),
    (Campaign::Store, "aborted", 1),
];

/// The merged `sync/reelections` counter of a run: shared kernel cells
/// whose crashed owner a survivor replaced.
fn sync_reelections(r: &CampaignReport) -> u64 {
    r.metrics
        .merged
        .subsystems
        .iter()
        .filter(|c| c.subsystem == "sync" && c.name == "reelections")
        .map(|c| c.value)
        .sum()
}

/// The first line where two event logs differ: (line number, line of
/// `a`, line of `b`), with an empty string past the end of a log.
fn first_divergence<'a>(a: &'a str, b: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let (mut la, mut lb) = (a.lines(), b.lines());
    let mut line = 1;
    loop {
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x != y => return Some((line, x.unwrap_or(""), y.unwrap_or(""))),
            _ => line += 1,
        }
    }
}

/// The judgement of a sweep: every run survived its invariants and
/// crashed a node, every rerun reproduced its event log byte for byte,
/// no two seeds of a campaign produced the same log, every headline
/// event of `HEADLINES` fired, every rack row keeps
/// `rpc_acked <= rpc_executed <= rpc_issued`, and the rack campaign
/// re-elected a shared kernel cell's owner at least once.
pub fn failures(runs: &[SweptRun]) -> Vec<String> {
    let mut failures = Vec::new();
    for SweptRun {
        report: r,
        rerun_log,
    } in runs
    {
        let (name, seed) = (r.campaign.name(), r.seed);
        for v in &r.violations {
            failures.push(format!("{name} seed {seed}: {v}"));
        }
        if r.counts.crashes == 0 {
            failures.push(format!("{name} seed {seed}: the storm crashed no node"));
        }
        if let Some((line, first, rerun)) = first_divergence(&r.log_text, rerun_log) {
            failures.push(format!(
                "{name} seed {seed}: rerun diverged at log line {line}: run {first:?}, \
                 rerun {rerun:?}"
            ));
        }
        if let Some(twin) = runs.iter().find(|o| {
            o.report.campaign == r.campaign
                && o.report.seed < seed
                && o.report.log_text == r.log_text
        }) {
            failures.push(format!(
                "{name} seeds {} and {seed} produced the same event log",
                twin.report.seed
            ));
        }
        if r.campaign == Campaign::Rack {
            let (acked, executed, issued) = (
                r.tally("rpc_acked"),
                r.tally("rpc_executed"),
                r.tally("rpc_issued"),
            );
            if !(acked <= executed && executed <= issued) {
                failures.push(format!(
                    "rack seed {seed}: rpc acked {acked}, executed {executed}, issued {issued} \
                     (want acked <= executed <= issued)"
                ));
            }
        }
    }
    let of = |campaign| {
        runs.iter()
            .map(|r| &r.report)
            .filter(move |r| r.campaign == campaign)
    };
    for (campaign, tally, least) in HEADLINES {
        let got: u64 = of(campaign).map(|r| r.tally(tally)).sum();
        if got < least {
            failures.push(format!(
                "{}: headline {tally} = {got} across the sweep, want >= {least}",
                campaign.name()
            ));
        }
    }
    if of(Campaign::Rack).map(sync_reelections).sum::<u64>() == 0 {
        failures.push(
            "rack: no crash re-elected a shared kernel cell's owner (ctr[sync/reelections] = 0)"
                .to_string(),
        );
    }
    failures
}

/// The run whose metrics `figures storm` prints under its tables: the
/// rack campaign's first seed, the run that drives every subsystem.
///
/// # Panics
///
/// Panics if `runs` holds no rack campaign run.
pub fn named(runs: &[SweptRun]) -> &CampaignReport {
    runs.iter()
        .map(|r| &r.report)
        .find(|r| r.campaign == Campaign::Rack)
        .expect("the sweep runs the rack campaign")
}

/// Render one table per campaign: seed, executed steps, crashes and
/// restarts, every tally, and the [`flacdk::wire::fnv1a`] digest of the
/// event log.
pub fn report(runs: &[SweptRun]) -> String {
    let mut out = format!(
        "§3.6 fault storms: {} campaigns x seeds {}..={} x {STEPS} steps, every run rerun \
         byte-identically (event-log digest: flacdk::wire::fnv1a)\n",
        Campaign::ALL.len(),
        SEEDS.start(),
        SEEDS.end()
    );
    for campaign in Campaign::ALL {
        let mine: Vec<&CampaignReport> = runs
            .iter()
            .map(|r| &r.report)
            .filter(|r| r.campaign == campaign)
            .collect();
        let Some(first) = mine.first() else { continue };
        let mut headers = vec!["seed", "steps", "cr/rs"];
        headers.extend(first.tallies.iter().map(|&(k, _)| k));
        headers.push("log digest");
        let rows: Vec<Vec<String>> = mine
            .iter()
            .map(|r| {
                let mut row = vec![
                    r.seed.to_string(),
                    r.events.to_string(),
                    format!("{}/{}", r.counts.crashes, r.counts.restarts),
                ];
                row.extend(r.tallies.iter().map(|(_, v)| v.to_string()));
                row.push(format!(
                    "{:016x}",
                    flacdk::wire::fnv1a(r.log_text.as_bytes())
                ));
                row
            })
            .collect();
        out.push_str(&format!(
            "\n{} campaign\n\n{}",
            campaign.name(),
            crate::table::render(&headers, &rows)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// [`sweep`] of `campaign`. Each campaign sweeps once per test
    /// process; every sweep test below reads the same runs.
    fn swept(campaign: Campaign) -> &'static [SweptRun] {
        static SWEEPS: [OnceLock<Vec<SweptRun>>; 5] = [const { OnceLock::new() }; 5];
        SWEEPS[campaign as usize].get_or_init(|| sweep(campaign))
    }

    /// The first runs of [`swept`] `campaign`.
    fn reports(campaign: Campaign) -> Vec<CampaignReport> {
        swept(campaign).iter().map(|r| r.report.clone()).collect()
    }

    /// Run one campaign and assert that it survived a storm that crashed
    /// nodes.
    fn survivor(campaign: Campaign, seed: u64) -> CampaignReport {
        let r = campaign.run(seed);
        let name = campaign.name();
        assert_eq!(r.violations, Vec::<String>::new(), "{name} seed {seed}");
        assert!(r.counts.crashes > 0, "{name} seed {seed} crashed nothing");
        r
    }

    /// Assert that tally `name`, summed over `runs`, reached `at_least`.
    fn fired(runs: &[CampaignReport], name: &str, at_least: u64) {
        let got: u64 = runs.iter().map(|r| r.tally(name)).sum();
        let campaign = runs[0].campaign.name();
        assert!(got >= at_least, "{campaign} {name} = {got} < {at_least}");
    }

    /// The tally `name` of `r`, mutably.
    fn tally_mut<'a>(r: &'a mut SweptRun, name: &str) -> &'a mut u64 {
        let tally = r.report.tallies.iter_mut().find(|(k, _)| *k == name);
        &mut tally.expect("a declared tally").1
    }

    /// Zero tally `name` on every run of `campaign`.
    fn zero(runs: &mut [SweptRun], campaign: Campaign, name: &str) {
        for r in runs.iter_mut().filter(|r| r.report.campaign == campaign) {
            *tally_mut(r, name) = 0;
        }
    }

    /// Change line 2 of the rack seed 1 rerun's log.
    fn rerun_differs(runs: &mut [SweptRun]) {
        let mut lines: Vec<&str> = runs[0].rerun_log.lines().collect();
        lines[1] = "a different step";
        runs[0].rerun_log = lines.join("\n");
    }

    #[test]
    fn first_divergence_names_the_line() {
        assert_eq!(first_divergence("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_divergence("a\nb\n", "a\nc\n"), Some((2, "b", "c")));
        assert_eq!(first_divergence("a\n", "a\nb\n"), Some((2, "", "b")));
    }

    #[test]
    fn judgement_rejects_each_broken_invariant() {
        let all: Vec<SweptRun> = Campaign::ALL
            .into_iter()
            .flat_map(|c| swept(c).iter().cloned())
            .collect();
        // Runs 0..6 are the rack campaign's seeds 1..=6, 6..12 tiering's.
        crate::assert_judged(
            &all,
            |r: &Vec<SweptRun>| failures(r),
            &[
                ("tiering seed 2: vpn 3 corrupted", |r| {
                    r[7].report.violations.push("vpn 3 corrupted".into());
                }),
                ("rack seed 4: the storm crashed no node", |r| {
                    r[3].report.counts.crashes = 0;
                }),
                ("rack seed 1: rerun diverged at log line 2: run \"", |r| {
                    rerun_differs(r)
                }),
                ("rerun \"a different step\"", |r| rerun_differs(r)),
                ("tiering seeds 1 and 3 produced the same event log", |r| {
                    r[8].report.log_text = r[6].report.log_text.clone();
                    r[8].rerun_log = r[6].rerun_log.clone();
                }),
                ("rack: headline fs_commits", |r| {
                    zero(r, Campaign::Rack, "fs_commits");
                }),
                ("tiering: headline aborts", |r| {
                    zero(r, Campaign::Tiering, "aborts");
                }),
                ("delegated: headline reelections", |r| {
                    zero(r, Campaign::Delegated, "reelections");
                }),
                ("node-replicated: headline reelections", |r| {
                    zero(r, Campaign::NodeReplicated, "reelections");
                }),
                ("node-replicated: headline publisher_deaths", |r| {
                    zero(r, Campaign::NodeReplicated, "publisher_deaths");
                }),
                ("store: headline aborted", |r| {
                    zero(r, Campaign::Store, "aborted");
                }),
                ("rack seed 2: rpc acked", |r| {
                    *tally_mut(&mut r[1], "rpc_executed") = 0;
                }),
                ("rack seed 5: rpc acked", |r| {
                    *tally_mut(&mut r[4], "rpc_executed") += 1_000;
                }),
                ("ctr[sync/reelections] = 0", |r| {
                    for run in &mut r[..6] {
                        run.report
                            .metrics
                            .merged
                            .subsystems
                            .retain(|c| c.subsystem != "sync" || c.name != "reelections");
                    }
                }),
            ],
        );
    }

    /// The rerun of the campaign's first sweep seed matches its event log
    /// byte for byte; the second seed must diverge.
    fn assert_replays(campaign: Campaign) {
        let (a, b) = (&swept(campaign)[0], &swept(campaign)[1]);
        let name = campaign.name();
        assert_eq!(
            a.rerun_log, a.report.log_text,
            "{name}: same seed, same bytes"
        );
        assert_ne!(
            a.report.log_text, b.report.log_text,
            "{name}: different seeds diverge"
        );
    }

    #[test]
    fn replay_is_byte_identical() {
        assert_replays(Campaign::Rack);
    }

    #[test]
    fn tiering_replay_is_byte_identical() {
        assert_replays(Campaign::Tiering);
    }

    #[test]
    fn sync_replay_is_byte_identical() {
        assert_replays(Campaign::Delegated);
    }

    #[test]
    fn nr_sync_replay_is_byte_identical() {
        assert_replays(Campaign::NodeReplicated);
    }

    #[test]
    fn store_replay_is_byte_identical() {
        assert_replays(Campaign::Store);
    }

    #[test]
    fn smoke_campaign_survives() {
        fired(&[survivor(Campaign::Rack, 0xF1AC_5708)], "fs_commits", 1);
    }

    #[test]
    fn acked_rpcs_execute_exactly_once() {
        let r = survivor(Campaign::Rack, 0xD15EA5E);
        assert!(r.tally("rpc_executed") >= r.tally("rpc_acked"));
        assert!(r.tally("rpc_executed") <= r.tally("rpc_issued"));
    }

    #[test]
    fn tiering_campaign_survives_and_migrates() {
        let r = [survivor(Campaign::Tiering, 0xF1AC_71E4)];
        fired(&r, "promotions", 1);
        fired(&r, "writes_committed", 1);
    }

    #[test]
    fn some_seed_crashes_the_migrating_node_mid_flight() {
        // The crash-consistency path (survivor abort, old copy
        // authoritative) must actually fire across the sweep.
        fired(&reports(Campaign::Tiering), "aborts", 1);
    }

    #[test]
    fn sync_campaign_survives_and_replays() {
        let r = [survivor(Campaign::Delegated, 0xF1AC_5C11)];
        fired(&r, "ops_committed", 1);
        assert_eq!(r[0].tally("replayed"), r[0].tally("ops_committed"));
    }

    #[test]
    fn some_seed_kills_the_delegation_owner_mid_storm() {
        // The headline invariant — owner crash mid-delegation loses no
        // committed op — must actually fire across the sweep.
        fired(&reports(Campaign::Delegated), "reelections", 1);
    }

    #[test]
    fn nr_sync_campaign_survives_combiner_deaths_mid_batch() {
        let r = [survivor(Campaign::NodeReplicated, 0xF1AC_5C11)];
        fired(&r, "ops_committed", 1);
        assert_eq!(r[0].tally("replayed"), r[0].tally("ops_committed"));
        // Combiners die mid-batch, in either fatal window.
        fired(&r, "reelections", 1);
    }

    #[test]
    fn nr_seed_sweep_kills_combiners_in_both_windows() {
        // Both fatal windows — before the tail CAS and after the append
        // — must fire across the sweep, and so must a publisher dying
        // holding a flushed publication.
        let runs = reports(Campaign::NodeReplicated);
        fired(&runs, "reelections", 2);
        fired(&runs, "publisher_deaths", 1);
    }

    #[test]
    fn store_campaign_survives_without_duplicate_downloads() {
        let r = [survivor(Campaign::Store, 0xF1AC_5704)];
        fired(&r, "claims_won", 1);
        fired(&r, "committed", 1);
    }

    #[test]
    fn some_seed_crashes_a_claim_holder_mid_fetch() {
        // The headline invariant — a fetcher crash between claim and
        // commit triggers recovery aborts, yet no chunk is ever shipped
        // twice — must actually fire across the sweep.
        fired(&reports(Campaign::Store), "aborted", 1);
    }
}
