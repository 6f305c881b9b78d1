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
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Shared liveness flags consulted by node contexts and the interconnect.
#[derive(Debug)]
pub struct NodeLiveness {
    alive: Vec<AtomicBool>,
}

impl NodeLiveness {
    pub(crate) fn new(nodes: usize) -> Arc<Self> {
        Arc::new(NodeLiveness {
            alive: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
        })
    }

    /// Whether the node is currently executing.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive
            .get(node.0)
            .map(|a| a.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    fn set(&self, node: NodeId, alive: bool) {
        if let Some(a) = self.alive.get(node.0) {
            a.store(alive, Ordering::SeqCst);
        }
    }
}

/// Deterministic injector of the three fault classes.
///
/// All randomized choices draw from a seeded RNG, so a given seed replays
/// the exact same fault schedule.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rng: Mutex<SplitMix64>,
    liveness: Arc<NodeLiveness>,
    down_links: RwLock<HashSet<(NodeId, NodeId)>>,
    log: Mutex<Vec<FaultEvent>>,
}

impl FaultInjector {
    pub(crate) fn new(seed: u64, liveness: Arc<NodeLiveness>) -> Self {
        FaultInjector {
            seed,
            rng: Mutex::new(SplitMix64::new(seed)),
            liveness,
            down_links: RwLock::new(HashSet::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The explicit seed this injector was built with. Every randomized
    /// choice derives from it, so replaying a run only needs this value.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Poison `len` bytes of global memory at `addr` at simulated time `at_ns`.
    pub fn poison_memory(&self, global: &GlobalMemory, addr: GAddr, len: usize, at_ns: u64) {
        global.poison(addr, len);
        self.log.lock().push(FaultEvent {
            kind: FaultKind::MemoryPoison { addr, len },
            at_ns,
        });
    }

    /// Poison a uniformly random word inside `[base, base+len)`.
    /// Returns the poisoned address.
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
        self.liveness.set(node, false);
        self.log.lock().push(FaultEvent {
            kind: FaultKind::NodeCrash { node },
            at_ns,
        });
    }

    /// Bring a crashed node back at simulated time `at_ns`.
    pub fn restart_node(&self, node: NodeId, at_ns: u64) {
        self.liveness.set(node, true);
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
