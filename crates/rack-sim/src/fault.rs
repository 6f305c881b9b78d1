//! Fault injection: memory poisoning, node crashes, link failures.
//!
//! The paper's §2.2 motivates system-wide fault tolerance with two
//! observations: global memory fails more often than local DRAM, and every
//! interconnect hop/switch expands the fault surface. This module gives
//! those failures a concrete, *deterministic* form so the FlacDK
//! reliability mechanisms and the fault-box experiments have real faults
//! to detect, isolate, and recover from.

use crate::memory::{GAddr, GlobalMemory};
use crate::rng::SplitMix64;
use crate::sync::{Mutex, RwLock};
use crate::topology::NodeId;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kind of an injected fault (or recovery action).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Uncorrectable memory error over a global address range.
    MemoryPoison { addr: GAddr, len: usize },
    /// A node stopped executing.
    NodeCrash { node: NodeId },
    /// A crashed node came back (its cache is cold, its clock survives).
    NodeRestart { node: NodeId },
    /// The link between two nodes went down.
    LinkFailure { from: NodeId, to: NodeId },
    /// A severed link was repaired.
    LinkRestore { from: NodeId, to: NodeId },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::MemoryPoison { addr, len } => write!(f, "poison {addr}+{len}"),
            FaultKind::NodeCrash { node } => write!(f, "crash n{}", node.0),
            FaultKind::NodeRestart { node } => write!(f, "restart n{}", node.0),
            FaultKind::LinkFailure { from, to } => {
                write!(f, "link-fail n{}->n{}", from.0, to.0)
            }
            FaultKind::LinkRestore { from, to } => {
                write!(f, "link-restore n{}->n{}", from.0, to.0)
            }
        }
    }
}

/// A recorded fault event, timestamped in simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// Simulated time at which the fault was injected.
    pub at_ns: u64,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12} ns] {}", self.at_ns, self.kind)
    }
}

/// Shared liveness consulted by node contexts and the interconnect: one
/// fuse word per node. 0 means crashed, `u64::MAX` means up with no
/// crash armed, and any `k` in between means up with `k` ops left before
/// [`FaultInjector::arm_crash`]'s crash fires.
#[derive(Debug)]
pub struct NodeLiveness {
    fuse: Vec<AtomicU64>,
}

/// The fuse word of a crashed node.
const DOWN: u64 = 0;
/// The fuse word of a live node with no crash armed.
const DISARMED: u64 = u64::MAX;

/// What one op found in its node's fuse word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fuse {
    /// The node is up; the op goes ahead.
    Up,
    /// The node was already down.
    Down,
    /// This op was the armed one: the node is now down.
    Fired,
}

impl NodeLiveness {
    pub(crate) fn new(nodes: usize) -> Arc<Self> {
        Arc::new(NodeLiveness {
            fuse: (0..nodes).map(|_| AtomicU64::new(DISARMED)).collect(),
        })
    }

    /// Whether the node is currently executing.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.fuse
            .get(node.0)
            .is_some_and(|f| f.load(Ordering::SeqCst) != DOWN)
    }

    /// Count one op of `node` against its fuse. An armed fuse counts
    /// down; the op that finds one op left burns it and reports
    /// [`Fuse::Fired`], leaving the node down. A disarmed fuse costs one
    /// load.
    pub(crate) fn tick(&self, node: NodeId) -> Fuse {
        let Some(f) = self.fuse.get(node.0) else {
            return Fuse::Down;
        };
        let armed = |w| (w != DOWN && w != DISARMED).then(|| w - 1);
        match f.fetch_update(Ordering::SeqCst, Ordering::SeqCst, armed) {
            Ok(1) => Fuse::Fired,
            Err(DOWN) => Fuse::Down,
            _ => Fuse::Up,
        }
    }

    fn set(&self, node: NodeId, word: u64) {
        if let Some(f) = self.fuse.get(node.0) {
            f.store(word, Ordering::SeqCst);
        }
    }
}

/// Deterministic injector of the three fault classes.
///
/// All randomized choices draw from a seeded RNG, so a given seed replays
/// the exact same fault schedule.
#[derive(Debug)]
pub struct FaultInjector {
    rng: Mutex<SplitMix64>,
    liveness: Arc<NodeLiveness>,
    down_links: RwLock<HashSet<(NodeId, NodeId)>>,
    log: Mutex<Vec<FaultEvent>>,
}

impl FaultInjector {
    pub(crate) fn new(seed: u64, liveness: Arc<NodeLiveness>) -> Self {
        FaultInjector {
            rng: Mutex::new(SplitMix64::new(seed)),
            liveness,
            down_links: RwLock::new(HashSet::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Poison `len` bytes of global memory at `addr` at simulated time `at_ns`.
    pub fn poison_memory(&self, global: &GlobalMemory, addr: GAddr, len: usize, at_ns: u64) {
        global.poison(addr, len);
        self.log.lock().push(FaultEvent {
            kind: FaultKind::MemoryPoison { addr, len },
            at_ns,
        });
    }

    /// Poison a uniformly random word inside `[base, base+len)`, drawn
    /// from the injector's seeded RNG. Returns the poisoned address.
    ///
    /// Test probe: the fault storms schedule their poison from their own
    /// plan ([`crate::storm::plan`]), so only the seed-replay tests call
    /// it.
    pub fn poison_random_word(
        &self,
        global: &GlobalMemory,
        base: GAddr,
        len: usize,
        at_ns: u64,
    ) -> GAddr {
        let words = (len / 8).max(1);
        let pick = self.rng.lock().gen_index(words);
        let addr = GAddr((base.0 & !7) + (pick as u64) * 8);
        self.poison_memory(global, addr, 8, at_ns);
        addr
    }

    /// Crash a node: all of its subsequent operations fail with
    /// [`crate::SimError::NodeDown`] until [`FaultInjector::restart_node`].
    pub fn crash_node(&self, node: NodeId, at_ns: u64) {
        self.liveness.set(node, DOWN);
        self.log.lock().push(FaultEvent {
            kind: FaultKind::NodeCrash { node },
            at_ns,
        });
    }

    /// Arm a crash inside a protocol: the `k`-th op `node` issues from
    /// now on (`k >= 1`; an op is any [`crate::NodeCtx`] call that can
    /// fail with `NodeDown`) fails with `NodeDown` before it takes effect
    /// or charges anything, and the node is crashed as by
    /// [`FaultInjector::crash_node`] at its own clock. Ops `1..k` run
    /// normally. Re-arming replaces the count; arming a dead node does
    /// nothing; [`FaultInjector::restart_node`] disarms.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0.
    pub fn arm_crash(&self, node: NodeId, k: u64) {
        assert!(k >= 1, "the fuse counts ops from 1");
        if let Some(f) = self.liveness.fuse.get(node.0) {
            let _ = f.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| {
                (w != DOWN).then_some(k.min(DISARMED - 1))
            });
        }
    }

    /// Bring a crashed node back at simulated time `at_ns`, its fuse
    /// disarmed.
    pub fn restart_node(&self, node: NodeId, at_ns: u64) {
        self.liveness.set(node, DISARMED);
        self.log.lock().push(FaultEvent {
            kind: FaultKind::NodeRestart { node },
            at_ns,
        });
    }

    /// Sever the directed link `from -> to`.
    pub fn fail_link(&self, from: NodeId, to: NodeId, at_ns: u64) {
        self.down_links.write().insert((from, to));
        self.log.lock().push(FaultEvent {
            kind: FaultKind::LinkFailure { from, to },
            at_ns,
        });
    }

    /// Restore the directed link `from -> to` at simulated time `at_ns`.
    pub fn restore_link(&self, from: NodeId, to: NodeId, at_ns: u64) {
        self.down_links.write().remove(&(from, to));
        self.log.lock().push(FaultEvent {
            kind: FaultKind::LinkRestore { from, to },
            at_ns,
        });
    }

    /// Whether the directed link `from -> to` is currently down.
    pub fn link_down(&self, from: NodeId, to: NodeId) -> bool {
        self.down_links.read().contains(&(from, to))
    }

    /// All injected fault events, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.log.lock().clone()
    }

    /// The event log rendered one line per event — a stable text form for
    /// byte-identical replay comparison (same seed ⇒ same lines).
    pub fn log_lines(&self) -> Vec<String> {
        self.log.lock().iter().map(|e| e.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_and_restart_flip_liveness() {
        let liveness = NodeLiveness::new(2);
        let inj = FaultInjector::new(1, liveness.clone());
        assert!(liveness.is_alive(NodeId(1)));
        inj.crash_node(NodeId(1), 100);
        assert!(!liveness.is_alive(NodeId(1)));
        inj.restart_node(NodeId(1), 200);
        assert!(liveness.is_alive(NodeId(1)));
        // Both transitions land in the log, so a replayed schedule can be
        // compared transition-for-transition.
        assert_eq!(
            inj.events(),
            vec![
                FaultEvent {
                    kind: FaultKind::NodeCrash { node: NodeId(1) },
                    at_ns: 100
                },
                FaultEvent {
                    kind: FaultKind::NodeRestart { node: NodeId(1) },
                    at_ns: 200
                },
            ]
        );
        assert_eq!(
            inj.log_lines(),
            vec![
                "[         100 ns] crash n1".to_string(),
                "[         200 ns] restart n1".to_string(),
            ]
        );
    }

    #[test]
    fn out_of_range_node_is_not_alive() {
        let liveness = NodeLiveness::new(2);
        assert!(!liveness.is_alive(NodeId(9)));
    }

    #[test]
    fn link_failure_is_directional() {
        let liveness = NodeLiveness::new(2);
        let inj = FaultInjector::new(1, liveness);
        inj.fail_link(NodeId(0), NodeId(1), 5);
        assert!(inj.link_down(NodeId(0), NodeId(1)));
        assert!(!inj.link_down(NodeId(1), NodeId(0)));
        inj.restore_link(NodeId(0), NodeId(1), 9);
        assert!(!inj.link_down(NodeId(0), NodeId(1)));
        assert_eq!(inj.events().len(), 2, "failure and restore both logged");
    }

    #[test]
    fn poison_random_word_is_deterministic_per_seed() {
        let g1 = GlobalMemory::new(4096);
        let g2 = GlobalMemory::new(4096);
        let a1 =
            FaultInjector::new(42, NodeLiveness::new(1)).poison_random_word(&g1, GAddr(0), 4096, 0);
        let a2 =
            FaultInjector::new(42, NodeLiveness::new(1)).poison_random_word(&g2, GAddr(0), 4096, 0);
        assert_eq!(a1, a2);
        assert!(g1.is_poisoned(a1, 8));
    }
}
