//! Seeded fault-storm plans: reproducible timelines of injected faults
//! interleaved with workload steps.
//!
//! The paper argues (§2.2, §4) that fault tolerance must be exercised as
//! a *system-wide, continuous* property, not a hand-placed unit test.
//! [`plan`] turns one `u64` seed into a deterministic schedule of node
//! crashes/restarts, link failures/restores, memory poisoning, and
//! delayed writebacks, interleaved with workload steps. Every decision —
//! which fault, which victim, how much simulated time passes between
//! steps — draws from a single [`SplitMix64`] stream, and the plan takes
//! no rack, so the same seed always yields the same [`StormStep`]s.
//!
//! The plan is data: a driver walks it, calls [`inject`] for each step
//! (the one place a scheduled fault enters the rack) and then runs its
//! own reaction — recovery behaviour (retry, re-election, journal
//! replay) lives in the layers above. A log of `"{step} :: {outcome}"`
//! lines is byte-identical across runs as long as the reaction is
//! deterministic (no host time, no host randomness) — the property
//! `tests/properties.rs` checks.

use crate::memory::GAddr;
use crate::rack::Rack;
use crate::rng::SplitMix64;
use crate::topology::NodeId;
use std::fmt;

/// Scheduled steps of every campaign (the heal's restarts are extra).
pub const STEPS: u32 = 60;
/// The scheduler never crashes below this many live nodes.
pub const MIN_LIVE_NODES: usize = 2;
/// Relative weights of workload steps, node crashes and node restarts.
const WORKLOAD_WEIGHT: u32 = 10;
const CRASH_WEIGHT: u32 = 2;
const RESTART_WEIGHT: u32 = 3;
/// Simulated-time gap between steps, drawn uniformly from this
/// inclusive range.
const GAP_NS: (u64, u64) = (500, 5_000);

/// What a campaign injects besides crashes and restarts. Every campaign
/// runs [`STEPS`] steps, keeps [`MIN_LIVE_NODES`] up, and ends by
/// restarting every down node and restoring every down link, so
/// liveness invariants can be checked after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormShape {
    /// Node crashes and restarts only.
    CrashRestart,
    /// Also directed link failures and restores, single-word poison
    /// inside `poison_region` (base, len in bytes), and delayed
    /// writebacks (the reaction layer writes without flushing,
    /// committing only on a later step).
    Full { poison_region: (GAddr, usize) },
}

impl StormShape {
    /// Relative weights of link failures, link restores, poison and
    /// delayed writebacks.
    fn extra_weights(self) -> [u32; 4] {
        match self {
            StormShape::CrashRestart => [0; 4],
            StormShape::Full { .. } => [2, 3, 1, 2],
        }
    }
}

/// One scheduled operation of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormOp {
    /// A plain workload step: the driver's reaction does subsystem work.
    Workload,
    /// The reaction layer should write *without* flushing, committing on
    /// a later step — the crash-during-writeback window.
    DelayedWriteback { node: NodeId },
    /// [`inject`] calls `crash_node(node)`.
    CrashNode { node: NodeId },
    /// [`inject`] calls `restart_node(node)`.
    RestartNode { node: NodeId },
    /// [`inject`] calls `fail_link(from, to)`.
    FailLink { from: NodeId, to: NodeId },
    /// [`inject`] calls `restore_link(from, to)`.
    RestoreLink { from: NodeId, to: NodeId },
    /// [`inject`] poisons the word at `addr`.
    PoisonWord { addr: GAddr },
}

impl fmt::Display for StormOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StormOp::Workload => write!(f, "workload"),
            StormOp::DelayedWriteback { node } => write!(f, "delayed-writeback n{}", node.0),
            StormOp::CrashNode { node } => write!(f, "crash n{}", node.0),
            StormOp::RestartNode { node } => write!(f, "restart n{}", node.0),
            StormOp::FailLink { from, to } => write!(f, "link-fail n{}->n{}", from.0, to.0),
            StormOp::RestoreLink { from, to } => {
                write!(f, "link-restore n{}->n{}", from.0, to.0)
            }
            StormOp::PoisonWord { addr } => write!(f, "poison-word {addr}"),
        }
    }
}

/// One step of a storm plan: its index, its campaign-virtual time and
/// its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormStep {
    /// Step index (heal steps continue the numbering past [`STEPS`]).
    pub step: u32,
    /// Campaign-virtual simulated time of the step; every injected fault
    /// is stamped with it.
    pub at_ns: u64,
    /// The scheduled operation.
    pub op: StormOp,
}

impl fmt::Display for StormStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[step {:04} @ {:>10} ns] {}",
            self.step, self.at_ns, self.op
        )
    }
}

/// Per-class operation counts of one campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormCounts {
    pub workload: u64,
    pub delayed_writebacks: u64,
    pub crashes: u64,
    pub restarts: u64,
    pub link_failures: u64,
    pub link_restores: u64,
    pub poisons: u64,
}

impl StormCounts {
    /// Count `plan`'s steps per class and add them to the rack's
    /// `storm/*` counters (node 0's registry), so the rack report shows
    /// what the storm did.
    pub fn record(rack: &Rack, plan: &[StormStep]) -> Self {
        let mut c = StormCounts::default();
        for s in plan {
            *match s.op {
                StormOp::Workload => &mut c.workload,
                StormOp::DelayedWriteback { .. } => &mut c.delayed_writebacks,
                StormOp::CrashNode { .. } => &mut c.crashes,
                StormOp::RestartNode { .. } => &mut c.restarts,
                StormOp::FailLink { .. } => &mut c.link_failures,
                StormOp::RestoreLink { .. } => &mut c.link_restores,
                StormOp::PoisonWord { .. } => &mut c.poisons,
            } += 1;
        }
        let node0 = rack.node(0);
        let reg = node0.stats().registry();
        reg.add("storm", "steps", plan.len() as u64);
        reg.add("storm", "crashes", c.crashes);
        reg.add("storm", "restarts", c.restarts);
        reg.add("storm", "link_failures", c.link_failures);
        reg.add("storm", "link_restores", c.link_restores);
        reg.add("storm", "poisons", c.poisons);
        c
    }
}

/// The storm `seed` schedules on a rack of `nodes` nodes: [`STEPS`]
/// drawn steps, then the heal — a restart of every node still down, by
/// ascending node, then a restore of every link still down, by
/// ascending (from, to) — each heal step 500 ns after the last.
///
/// The plan is a pure function of its arguments: it keeps its own
/// virtual timeline and its own record of the nodes and links it took
/// down, so the schedule never depends on rack state. A driver replays
/// it step by step: [`inject`], then its own reaction.
///
/// ```
/// use rack_sim::storm::{self, StormOp, StormShape, MIN_LIVE_NODES};
/// use rack_sim::{NodeId, Rack, RackConfig};
///
/// let plan = storm::plan(42, StormShape::CrashRestart, 4);
/// assert_eq!(plan, storm::plan(42, StormShape::CrashRestart, 4));
/// let rack = Rack::new(RackConfig::n_node(4));
/// for step in &plan {
///     storm::inject(&rack, step);
///     let live = (0..4).filter(|&i| rack.is_alive(NodeId(i))).count();
///     assert!(live >= MIN_LIVE_NODES);
/// }
/// assert!((0..4).all(|i| rack.is_alive(NodeId(i))), "the heal restarts every node");
/// ```
pub fn plan(seed: u64, shape: StormShape, nodes: usize) -> Vec<StormStep> {
    let mut rng = SplitMix64::new(seed);
    let (mut down_nodes, mut down_links) = (Vec::new(), Vec::new());
    let mut plan = Vec::with_capacity(STEPS as usize);
    let (lo, hi) = GAP_NS;
    let mut at_ns = 0u64;
    for step in 0..STEPS {
        at_ns += lo + rng.next_below(hi - lo + 1);
        let op = pick_op(shape, &mut rng, nodes, &mut down_nodes, &mut down_links);
        plan.push(StormStep { step, at_ns, op });
    }
    down_nodes.sort_unstable_by_key(|n| n.0);
    down_links.sort_unstable_by_key(|(a, b)| (a.0, b.0));
    let heal = down_nodes
        .into_iter()
        .map(|node| StormOp::RestartNode { node })
        .chain(
            down_links
                .into_iter()
                .map(|(from, to)| StormOp::RestoreLink { from, to }),
        );
    for op in heal {
        at_ns += lo;
        let step = plan.len() as u32;
        plan.push(StormStep { step, at_ns, op });
    }
    plan
}

/// Inject `step`'s fault into `rack` through its
/// [`crate::FaultInjector`], stamped at the step's `at_ns`. Workload and
/// delayed-writeback steps inject nothing: they are the driver's work.
pub fn inject(rack: &Rack, step: &StormStep) {
    let (faults, at) = (rack.faults(), step.at_ns);
    match step.op {
        StormOp::Workload | StormOp::DelayedWriteback { .. } => {}
        StormOp::CrashNode { node } => faults.crash_node(node, at),
        StormOp::RestartNode { node } => faults.restart_node(node, at),
        StormOp::FailLink { from, to } => faults.fail_link(from, to, at),
        StormOp::RestoreLink { from, to } => faults.restore_link(from, to, at),
        StormOp::PoisonWord { addr } => faults.poison_memory(rack.global(), addr, 8, at),
    }
}

/// Draw the next operation. Infeasible draws (crash below the live
/// floor, restart with nothing down, …) demote to a workload step —
/// still a deterministic function of the RNG stream.
fn pick_op(
    shape: StormShape,
    rng: &mut SplitMix64,
    n: usize,
    down_nodes: &mut Vec<NodeId>,
    down_links: &mut Vec<(NodeId, NodeId)>,
) -> StormOp {
    let [link_fail, link_restore, poison, delayed] = shape.extra_weights();
    let total = WORKLOAD_WEIGHT + CRASH_WEIGHT + RESTART_WEIGHT;
    let total = total + link_fail + link_restore + poison + delayed;
    let mut r = rng.next_below(u64::from(total));
    let mut in_class = |w: u32| {
        if r < u64::from(w) {
            true
        } else {
            r -= u64::from(w);
            false
        }
    };

    if in_class(WORKLOAD_WEIGHT) {
        return StormOp::Workload;
    }
    if in_class(CRASH_WEIGHT) {
        let live: Vec<NodeId> = (0..n)
            .map(NodeId)
            .filter(|id| !down_nodes.contains(id))
            .collect();
        if live.len() > MIN_LIVE_NODES {
            let victim = live[rng.gen_index(live.len())];
            down_nodes.push(victim);
            return StormOp::CrashNode { node: victim };
        }
        return StormOp::Workload;
    }
    if in_class(RESTART_WEIGHT) {
        if !down_nodes.is_empty() {
            let node = down_nodes.swap_remove(rng.gen_index(down_nodes.len()));
            return StormOp::RestartNode { node };
        }
        return StormOp::Workload;
    }
    if in_class(link_fail) {
        if n >= 2 {
            let from = NodeId(rng.gen_index(n));
            let mut to = NodeId(rng.gen_index(n - 1));
            if to.0 >= from.0 {
                to.0 += 1;
            }
            if !down_links.contains(&(from, to)) {
                down_links.push((from, to));
                return StormOp::FailLink { from, to };
            }
        }
        return StormOp::Workload;
    }
    if in_class(link_restore) {
        if !down_links.is_empty() {
            let (from, to) = down_links.swap_remove(rng.gen_index(down_links.len()));
            return StormOp::RestoreLink { from, to };
        }
        return StormOp::Workload;
    }
    if in_class(poison) {
        if let StormShape::Full {
            poison_region: (base, len),
        } = shape
        {
            let words = (len / 8).max(1);
            let addr = GAddr((base.0 & !7) + rng.gen_index(words) as u64 * 8);
            return StormOp::PoisonWord { addr };
        }
        return StormOp::Workload;
    }
    // Remaining weight: delayed writeback on a live node.
    let live: Vec<NodeId> = (0..n)
        .map(NodeId)
        .filter(|id| !down_nodes.contains(id))
        .collect();
    if live.is_empty() {
        return StormOp::Workload;
    }
    StormOp::DelayedWriteback {
        node: live[rng.gen_index(live.len())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use crate::rack::RackConfig;

    const FULL: StormShape = StormShape::Full {
        poison_region: (GAddr(0), 4096),
    };

    /// Inject every step of `seed`'s plan into a fresh four-node rack (two
    /// above the crash floor). Returns the rack, the plan and the fewest
    /// live nodes seen after any step.
    fn storm(seed: u64) -> (Rack, Vec<StormStep>, usize) {
        let rack = Rack::new(RackConfig::n_node(4));
        let plan = plan(seed, FULL, rack.node_count());
        let mut min_live = usize::MAX;
        for step in &plan {
            inject(&rack, step);
            let live = (0..rack.node_count())
                .filter(|&i| rack.is_alive(NodeId(i)))
                .count();
            min_live = min_live.min(live);
        }
        (rack, plan, min_live)
    }

    /// The faults `plan` schedules, as the injector logs them.
    fn scheduled_faults(plan: &[StormStep]) -> Vec<FaultEvent> {
        plan.iter()
            .filter_map(|s| {
                let kind = match s.op {
                    StormOp::CrashNode { node } => FaultKind::NodeCrash { node },
                    StormOp::RestartNode { node } => FaultKind::NodeRestart { node },
                    StormOp::FailLink { from, to } => FaultKind::LinkFailure { from, to },
                    StormOp::RestoreLink { from, to } => FaultKind::LinkRestore { from, to },
                    StormOp::PoisonWord { addr } => FaultKind::MemoryPoison { addr, len: 8 },
                    StormOp::Workload | StormOp::DelayedWriteback { .. } => return None,
                };
                Some(FaultEvent {
                    kind,
                    at_ns: s.at_ns,
                })
            })
            .collect()
    }

    #[test]
    fn same_seed_yields_byte_identical_log() {
        let log = |seed: u64| -> String {
            plan(seed, FULL, 4)
                .iter()
                .map(|s| format!("{s}\n"))
                .collect()
        };
        assert_eq!(log(7), log(7));
        assert_ne!(log(7), log(8), "different seeds diverge");
    }

    #[test]
    fn campaign_respects_min_live_floor() {
        let (_, plan, min_live) = storm(3);
        assert!(plan
            .iter()
            .any(|s| matches!(s.op, StormOp::CrashNode { .. })));
        assert!(min_live >= MIN_LIVE_NODES, "never crashed below the floor");
    }

    #[test]
    fn heal_at_end_restores_everything() {
        let (rack, plan, _) = storm(11);
        for i in 0..rack.node_count() {
            assert!(rack.is_alive(NodeId(i)), "node {i} healed");
        }
        for a in 0..rack.node_count() {
            for b in 0..rack.node_count() {
                assert!(!rack.faults().link_down(NodeId(a), NodeId(b)));
            }
        }
        let counts = StormCounts::record(&rack, &plan);
        assert!(counts.crashes > 0, "storm actually crashed nodes");
        assert_eq!(counts.restarts, counts.crashes, "every crash healed");
        assert_eq!(counts.link_restores, counts.link_failures);
    }

    #[test]
    fn injected_faults_land_in_injector_log() {
        let (rack, plan, _) = storm(5);
        let injected = rack.faults().events();
        assert_eq!(
            injected,
            scheduled_faults(&plan),
            "same faults, same stamps"
        );
        let c = StormCounts::record(&rack, &plan);
        let storm_faults = c.crashes + c.restarts + c.link_failures + c.link_restores + c.poisons;
        assert_eq!(injected.len() as u64, storm_faults);
    }

    #[test]
    fn timeline_is_monotonic_and_counts_match() {
        let (rack, plan, _) = storm(13);
        let mut last = 0;
        for (i, s) in plan.iter().enumerate() {
            assert_eq!(s.step as usize, i, "steps numbered in order");
            assert!(s.at_ns > last, "strictly increasing virtual time");
            last = s.at_ns;
        }
        let c = StormCounts::record(&rack, &plan);
        assert_eq!(
            plan.len() as u64,
            c.workload
                + c.delayed_writebacks
                + c.crashes
                + c.restarts
                + c.link_failures
                + c.link_restores
                + c.poisons
        );
        let recorded = |name: &str| {
            let reg = rack.node(0).stats().registry().snapshot();
            reg.iter()
                .find(|c| c.subsystem == "storm" && c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(recorded("steps"), Some(plan.len() as u64));
        assert_eq!(recorded("crashes"), Some(c.crashes));
    }
}
