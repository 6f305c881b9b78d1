//! Rack-wide scheduling over shared load state.
//!
//! Per-node run-queue lengths are shared state consulted on every
//! placement and mutated on every task start/finish — a read/write mix
//! that shifts with the workload (bursty dispatch is write-heavy; steady
//! state is placement-read-heavy). They therefore live behind a
//! [`SyncCell`] with the **adaptive** driver enabled: the backend starts
//! replicated and re-tunes itself from the observed mix (paper §3.2's
//! "match the primitive to the structure", plus GCS/Soul's observation
//! that the best primitive shifts at runtime).

use flacdk::sync::{AdaptiveConfig, SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{Decoder, Encoder};
use flacos_tier::TierBudget;
use rack_sim::{GlobalMemory, NodeCtx, NodeId, SimError};
use std::sync::Arc;

/// The shared run-queue lengths, one slot per node.
#[derive(Debug, Default, Clone)]
struct SchedState {
    load: Vec<u64>,
}

const SCHED_STARTED: u8 = 0;
const SCHED_FINISHED: u8 = 1;

impl SyncState for SchedState {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        let (Ok(tag), Ok(node)) = (d.u8(), d.u64()) else {
            return;
        };
        let Some(slot) = self.load.get_mut(node as usize) else {
            return;
        };
        match tag {
            SCHED_STARTED => *slot += 1,
            // Saturating decrement: an extra "finished" is harmless.
            SCHED_FINISHED => *slot = slot.saturating_sub(1),
            _ => {}
        }
    }
}

fn sched_op(tag: u8, node: NodeId) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(tag).put_u64(node.0 as u64);
    e.into_vec()
}

/// Shared run-queue lengths behind the adaptive sync cell.
#[derive(Debug)]
pub struct RackScheduler {
    cell: Arc<SyncCell<SchedState>>,
    nodes: usize,
}

impl RackScheduler {
    /// Allocate scheduler state for `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc(global: &GlobalMemory, nodes: usize) -> Result<Arc<Self>, SimError> {
        let cell = SyncCell::alloc(
            global,
            "sched_load",
            SyncCellConfig::new(nodes, SyncPolicy::NodeReplicated)
                .with_log(8192, 48)
                .with_adaptive(AdaptiveConfig::default()),
            SchedState {
                load: vec![0; nodes],
            },
        )?;
        Ok(Arc::new(RackScheduler { cell, nodes }))
    }

    /// Number of nodes under management.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The sync cell guarding the load state, as a recovery hook.
    pub fn sync_cell(&self) -> Arc<dyn flacdk::sync::SyncRecover> {
        self.cell.clone()
    }

    /// Record one more runnable task on `node`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn task_started(&self, ctx: &NodeCtx, node: NodeId) -> Result<(), SimError> {
        self.cell.update(ctx, &sched_op(SCHED_STARTED, node))?;
        self.cell.gc(ctx)?;
        Ok(())
    }

    /// Record one task leaving `node`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn task_finished(&self, ctx: &NodeCtx, node: NodeId) -> Result<(), SimError> {
        self.cell.update(ctx, &sched_op(SCHED_FINISHED, node))?;
        self.cell.gc(ctx)?;
        Ok(())
    }

    /// Current load of `node`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn load_of(&self, ctx: &NodeCtx, node: NodeId) -> Result<u64, SimError> {
        self.cell
            .read(ctx, |s| s.load.get(node.0).copied().unwrap_or(0))
    }

    /// Pick the least-loaded *live* node (ties break to the lowest id).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when every node is down.
    pub fn place(&self, ctx: &NodeCtx, alive: impl Fn(NodeId) -> bool) -> Result<NodeId, SimError> {
        let best = self.cell.read(ctx, |s| {
            let mut best: Option<(u64, NodeId)> = None;
            for (i, &load) in s.load.iter().enumerate() {
                let id = NodeId(i);
                if !alive(id) {
                    continue;
                }
                if best.map(|(b, _)| load < b).unwrap_or(true) {
                    best = Some((load, id));
                }
            }
            best
        })?;
        best.map(|(_, id)| id)
            .ok_or_else(|| SimError::Protocol("no live node to place on".into()))
    }

    /// Tier-aware placement: among live nodes with at least
    /// `min_free_bytes` of local-DRAM tier headroom (per `budget`), pick
    /// the least loaded (ties break to the lowest id). When every live
    /// node is tier-exhausted, fall back to plain load-based
    /// [`RackScheduler::place`] — a full fast tier is a performance
    /// concern, not a placement failure.
    ///
    /// Test probe: no boot path places by tier yet, so only
    /// `tiered_placement_avoids_exhausted_nodes` calls it.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when every node is down.
    pub fn place_tiered(
        &self,
        ctx: &NodeCtx,
        alive: impl Fn(NodeId) -> bool,
        budget: &TierBudget,
        min_free_bytes: u64,
    ) -> Result<NodeId, SimError> {
        let loads = self.cell.read(ctx, |s| s.load.clone())?;
        let mut best: Option<(u64, NodeId)> = None;
        for (i, &load) in loads.iter().enumerate() {
            let id = NodeId(i);
            if !alive(id) {
                continue;
            }
            if budget.free_bytes(ctx, id)? < min_free_bytes {
                continue;
            }
            if best.map(|(b, _)| load < b).unwrap_or(true) {
                best = Some((load, id));
            }
        }
        match best {
            Some((_, id)) => Ok(id),
            None => self.place(ctx, alive),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup(n: usize) -> (Rack, Arc<RackScheduler>) {
        let rack = Rack::new(RackConfig::n_node(n));
        let sched = RackScheduler::alloc(rack.global(), n).unwrap();
        (rack, sched)
    }

    #[test]
    fn placement_follows_load() {
        let (rack, sched) = setup(3);
        let n0 = rack.node(0);
        sched.task_started(&n0, NodeId(0)).unwrap();
        sched.task_started(&n0, NodeId(0)).unwrap();
        sched.task_started(&n0, NodeId(1)).unwrap();
        assert_eq!(sched.place(&n0, |_| true).unwrap(), NodeId(2));
        sched.task_started(&n0, NodeId(2)).unwrap();
        sched.task_started(&n0, NodeId(2)).unwrap();
        assert_eq!(sched.place(&n0, |_| true).unwrap(), NodeId(1));
        let loads: Vec<u64> = (0..3)
            .map(|i| sched.load_of(&n0, NodeId(i)).unwrap())
            .collect();
        assert_eq!(loads, [2, 1, 2]);
    }

    #[test]
    fn finished_tasks_reduce_load_saturating() {
        let (rack, sched) = setup(2);
        let n0 = rack.node(0);
        sched.task_started(&n0, NodeId(1)).unwrap();
        sched.task_finished(&n0, NodeId(1)).unwrap();
        sched.task_finished(&n0, NodeId(1)).unwrap(); // extra is harmless
        assert_eq!(sched.load_of(&n0, NodeId(1)).unwrap(), 0);
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let (rack, sched) = setup(3);
        let n1 = rack.node(1);
        // Node 0 is empty but dead; placement must avoid it.
        assert_eq!(sched.place(&n1, |id| id != NodeId(0)).unwrap(), NodeId(1));
        assert!(sched.place(&n1, |_| false).is_err(), "nothing alive");
    }

    #[test]
    fn tiered_placement_avoids_exhausted_nodes() {
        let (rack, sched) = setup(3);
        let n0 = rack.node(0);
        let budget = TierBudget::alloc(rack.global(), 3, 8192).unwrap();
        // Node 0 is idle but its fast tier is full; node 1 has headroom.
        sched.task_started(&n0, NodeId(1)).unwrap();
        sched.task_started(&n0, NodeId(2)).unwrap();
        sched.task_started(&n0, NodeId(2)).unwrap();
        assert!(budget.charge(&n0, NodeId(0), 8192).unwrap());
        assert_eq!(
            sched.place_tiered(&n0, |_| true, &budget, 4096).unwrap(),
            NodeId(1)
        );
        // All tiers exhausted → fall back to pure load (node 0 is idle).
        assert!(budget.charge(&n0, NodeId(1), 8192).unwrap());
        assert!(budget.charge(&n0, NodeId(2), 8192).unwrap());
        assert_eq!(
            sched.place_tiered(&n0, |_| true, &budget, 4096).unwrap(),
            NodeId(0)
        );
        // Dead nodes stay excluded even with headroom.
        budget.credit(&n0, NodeId(2), 8192).unwrap();
        assert_eq!(
            sched
                .place_tiered(&n0, |id| id != NodeId(2), &budget, 4096)
                .unwrap(),
            NodeId(0)
        );
    }

    #[test]
    fn decisions_visible_from_any_node() {
        let (rack, sched) = setup(2);
        sched.task_started(&rack.node(0), NodeId(0)).unwrap();
        // Node 1 sees node 0's load without any synchronization work.
        assert_eq!(sched.load_of(&rack.node(1), NodeId(0)).unwrap(), 1);
        assert_eq!(sched.nodes(), 2);
    }
}
