//! Seeded fault-storm campaigns: reproducible timelines of injected
//! faults interleaved with workload steps.
//!
//! The paper argues (§2.2, §4) that fault tolerance must be exercised as
//! a *system-wide, continuous* property, not a hand-placed unit test. A
//! [`StormCampaign`] turns one `u64` seed into a deterministic schedule
//! of node crashes/restarts, link failures/restores, memory poisoning,
//! and delayed writebacks, interleaved with workload steps driven by a
//! caller-supplied reaction closure. Every decision — which fault, which
//! victim, how much simulated time passes between steps — draws from a
//! single [`SplitMix64`] stream, so the same seed replays the exact same
//! campaign and emits a **byte-identical event log**.
//!
//! The campaign engine only schedules and injects; recovery behaviour
//! (retry, re-election, journal replay) lives in the layers above, which
//! observe each [`StormOp`] through the reaction closure and report an
//! outcome string that becomes part of the log. A reaction that is itself
//! deterministic (no host time, no host randomness) keeps the whole log
//! reproducible — the property `tests/properties.rs` checks.

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
    /// A plain workload step: the reaction closure does subsystem work.
    Workload,
    /// The reaction layer should write *without* flushing, committing on
    /// a later step — the crash-during-writeback window.
    DelayedWriteback { node: NodeId },
    /// `crash_node(node)` was injected before the reaction ran.
    CrashNode { node: NodeId },
    /// `restart_node(node)` was injected before the reaction ran.
    RestartNode { node: NodeId },
    /// `fail_link(from, to)` was injected before the reaction ran.
    FailLink { from: NodeId, to: NodeId },
    /// `restore_link(from, to)` was injected before the reaction ran.
    RestoreLink { from: NodeId, to: NodeId },
    /// One word at `addr` was poisoned before the reaction ran.
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

/// One executed campaign step: what happened, when, and how the reaction
/// layer fared (its returned outcome string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormEvent {
    /// Step index (heal steps continue the numbering past `steps`).
    pub step: u32,
    /// Campaign-virtual simulated time of the step.
    pub at_ns: u64,
    /// The scheduled operation.
    pub op: StormOp,
    /// Outcome reported by the reaction closure.
    pub outcome: String,
}

impl fmt::Display for StormEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[step {:04} @ {:>10} ns] {} :: {}",
            self.step, self.at_ns, self.op, self.outcome
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

/// The deterministic result of one campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormReport {
    /// The seed the campaign ran from (print it to reproduce a failure).
    pub seed: u64,
    /// Every executed step, in order.
    pub events: Vec<StormEvent>,
    /// Per-class operation counts.
    pub counts: StormCounts,
    /// Campaign-virtual time at the last step.
    pub final_ns: u64,
}

impl StormReport {
    /// The event log, one stable line per step.
    pub fn log_lines(&self) -> Vec<String> {
        self.events.iter().map(|e| e.to_string()).collect()
    }

    /// The whole event log as one newline-joined string, prefixed with
    /// the seed — the byte-identical replay artifact.
    pub fn log_text(&self) -> String {
        let mut out = format!("seed {:#018x}\n", self.seed);
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// A seeded fault-storm campaign over one [`Rack`].
///
/// ```
/// use rack_sim::storm::{StormCampaign, StormShape};
/// use rack_sim::{Rack, RackConfig};
///
/// let rack = Rack::new(RackConfig::small_test());
/// let campaign = StormCampaign::new(42, StormShape::CrashRestart);
/// let report = campaign.run(&rack, |_step, _op, _rack| "ok".to_string());
/// assert_eq!(report.events.len() as u64,
///            report.counts.workload + report.counts.delayed_writebacks
///            + report.counts.crashes + report.counts.restarts
///            + report.counts.link_failures + report.counts.link_restores
///            + report.counts.poisons);
/// ```
#[derive(Debug, Clone)]
pub struct StormCampaign {
    seed: u64,
    shape: StormShape,
}

impl StormCampaign {
    /// A campaign that will replay identically for a given `seed`.
    pub fn new(seed: u64, shape: StormShape) -> Self {
        StormCampaign { seed, shape }
    }

    /// The campaign's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drive the campaign against `rack`. Faults are injected through the
    /// rack's [`crate::FaultInjector`] *before* `react` observes the
    /// [`StormOp`]; `react`'s returned string becomes the step outcome.
    ///
    /// The campaign keeps its own virtual timeline (the `at_ns` stamps)
    /// and its own bookkeeping of which nodes/links it took down, so its
    /// schedule never depends on rack state mutated by the reaction
    /// layer — determinism holds as long as `react` itself is
    /// deterministic.
    pub fn run(
        &self,
        rack: &Rack,
        mut react: impl FnMut(u32, &StormOp, &Rack) -> String,
    ) -> StormReport {
        let n = rack.node_count();
        let mut rng = SplitMix64::new(self.seed);
        let mut t = 0u64;
        let mut down_nodes: Vec<NodeId> = Vec::new();
        let mut down_links: Vec<(NodeId, NodeId)> = Vec::new();
        let mut events = Vec::with_capacity(STEPS as usize);
        let mut counts = StormCounts::default();

        let mut step = 0u32;
        let emit = |rack: &Rack,
                    react: &mut dyn FnMut(u32, &StormOp, &Rack) -> String,
                    step: u32,
                    at_ns: u64,
                    op: StormOp,
                    counts: &mut StormCounts,
                    events: &mut Vec<StormEvent>| {
            match op {
                StormOp::Workload => counts.workload += 1,
                StormOp::DelayedWriteback { .. } => counts.delayed_writebacks += 1,
                StormOp::CrashNode { node } => {
                    rack.faults().crash_node(node, at_ns);
                    counts.crashes += 1;
                }
                StormOp::RestartNode { node } => {
                    rack.faults().restart_node(node, at_ns);
                    counts.restarts += 1;
                }
                StormOp::FailLink { from, to } => {
                    rack.faults().fail_link(from, to, at_ns);
                    counts.link_failures += 1;
                }
                StormOp::RestoreLink { from, to } => {
                    rack.faults().restore_link(from, to, at_ns);
                    counts.link_restores += 1;
                }
                StormOp::PoisonWord { addr } => {
                    rack.faults().poison_memory(rack.global(), addr, 8, at_ns);
                    counts.poisons += 1;
                }
            }
            let outcome = react(step, &op, rack);
            events.push(StormEvent {
                step,
                at_ns,
                op,
                outcome,
            });
        };

        for _ in 0..STEPS {
            let (lo, hi) = GAP_NS;
            t += lo + rng.next_below(hi.saturating_sub(lo) + 1);
            let op = self.pick_op(&mut rng, n, &mut down_nodes, &mut down_links);
            emit(rack, &mut react, step, t, op, &mut counts, &mut events);
            step += 1;
        }

        // Deterministic heal order: nodes ascending, then links.
        down_nodes.sort_unstable_by_key(|n| n.0);
        for node in down_nodes.drain(..) {
            t += GAP_NS.0;
            emit(
                rack,
                &mut react,
                step,
                t,
                StormOp::RestartNode { node },
                &mut counts,
                &mut events,
            );
            step += 1;
        }
        down_links.sort_unstable_by_key(|(a, b)| (a.0, b.0));
        for (from, to) in down_links.drain(..) {
            t += GAP_NS.0;
            emit(
                rack,
                &mut react,
                step,
                t,
                StormOp::RestoreLink { from, to },
                &mut counts,
                &mut events,
            );
            step += 1;
        }

        // Surface the campaign in the PR-1 metrics layer so the rack
        // report shows what the storm did.
        let node0 = rack.node(0);
        let reg = node0.stats().registry();
        reg.add("storm", "steps", events.len() as u64);
        reg.add("storm", "crashes", counts.crashes);
        reg.add("storm", "restarts", counts.restarts);
        reg.add("storm", "link_failures", counts.link_failures);
        reg.add("storm", "link_restores", counts.link_restores);
        reg.add("storm", "poisons", counts.poisons);

        StormReport {
            seed: self.seed,
            events,
            counts,
            final_ns: t,
        }
    }

    /// Draw the next operation. Infeasible draws (crash below the live
    /// floor, restart with nothing down, …) demote to a workload step —
    /// still a deterministic function of the RNG stream.
    fn pick_op(
        &self,
        rng: &mut SplitMix64,
        n: usize,
        down_nodes: &mut Vec<NodeId>,
        down_links: &mut Vec<(NodeId, NodeId)>,
    ) -> StormOp {
        let [link_fail, link_restore, poison, delayed] = self.shape.extra_weights();
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
            } = self.shape
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::rack::RackConfig;

    /// Render the campaign's fault-injector view next to the storm's own log
    /// (the injector log is the ground truth of what was injected; the storm
    /// log adds workload steps and reaction outcomes).
    fn injector_log_matches(rack: &Rack, report: &StormReport) -> bool {
        let injected: Vec<FaultKind> = rack.faults().events().iter().map(|e| e.kind).collect();
        let expected: Vec<FaultKind> = report
            .events
            .iter()
            .filter_map(|e| match e.op {
                StormOp::CrashNode { node } => Some(FaultKind::NodeCrash { node }),
                StormOp::RestartNode { node } => Some(FaultKind::NodeRestart { node }),
                StormOp::FailLink { from, to } => Some(FaultKind::LinkFailure { from, to }),
                StormOp::RestoreLink { from, to } => Some(FaultKind::LinkRestore { from, to }),
                StormOp::PoisonWord { addr } => Some(FaultKind::MemoryPoison { addr, len: 8 }),
                _ => None,
            })
            .collect();
        // The injector may hold extra events injected by the reaction layer;
        // require the storm's sequence to appear as a subsequence.
        let mut it = injected.iter();
        expected.iter().all(|want| it.any(|got| got == want))
    }

    const FULL: StormShape = StormShape::Full {
        poison_region: (GAddr(0), 4096),
    };

    /// Four nodes: two above the crash floor.
    fn rack() -> Rack {
        Rack::new(RackConfig::n_node(4))
    }

    #[test]
    fn same_seed_yields_byte_identical_log() {
        let run = |seed: u64| {
            let rack = rack();
            StormCampaign::new(seed, FULL)
                .run(&rack, |step, op, _| format!("saw {op} at {step}"))
                .log_text()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn campaign_respects_min_live_floor() {
        let rack = rack();
        let mut min_live = usize::MAX;
        StormCampaign::new(3, FULL).run(&rack, |_, _, rack| {
            let live = (0..rack.node_count())
                .filter(|&i| rack.liveness().is_alive(NodeId(i)))
                .count();
            min_live = min_live.min(live);
            String::new()
        });
        assert!(min_live >= MIN_LIVE_NODES, "never crashed below the floor");
    }

    #[test]
    fn heal_at_end_restores_everything() {
        let rack = rack();
        let report = StormCampaign::new(11, FULL).run(&rack, |_, _, _| String::new());
        for i in 0..rack.node_count() {
            assert!(rack.liveness().is_alive(NodeId(i)), "node {i} healed");
        }
        for a in 0..rack.node_count() {
            for b in 0..rack.node_count() {
                assert!(!rack.faults().link_down(NodeId(a), NodeId(b)));
            }
        }
        assert!(report.counts.crashes > 0, "storm actually crashed nodes");
        assert!(injector_log_matches(&rack, &report));
    }

    #[test]
    fn injected_faults_land_in_injector_log() {
        let rack = rack();
        let report = StormCampaign::new(5, FULL).run(&rack, |_, _, _| String::new());
        let injected = rack.faults().events().len() as u64;
        let storm_faults = report.counts.crashes
            + report.counts.restarts
            + report.counts.link_failures
            + report.counts.link_restores
            + report.counts.poisons;
        assert_eq!(injected, storm_faults);
    }

    #[test]
    fn timeline_is_monotonic_and_counts_match() {
        let rack = rack();
        let report = StormCampaign::new(13, FULL).run(&rack, |_, _, _| String::new());
        let mut last = 0;
        for e in &report.events {
            assert!(e.at_ns > last, "strictly increasing virtual time");
            last = e.at_ns;
        }
        let c = report.counts;
        assert_eq!(
            report.events.len() as u64,
            c.workload
                + c.delayed_writebacks
                + c.crashes
                + c.restarts
                + c.link_failures
                + c.link_restores
                + c.poisons
        );
    }
}
