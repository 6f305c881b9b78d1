//! Quiescence-based synchronization: epoch RCU.
//!
//! Paper §3.2: *"This approach employs read-copy-update (RCU) style
//! synchronization to avoid in-place modification. Particularly, this
//! method is efficient in non-cache-coherent shared memory as it converts
//! tracking stale cache lines to parallel reference in RCU."*
//!
//! The key trick for incoherent fabrics: a writer never modifies a
//! published block. It allocates a *fresh* block (whose address the
//! reader has never cached), publishes it with a write-back, and swings
//! an atomic pointer. A reader that loads the pointer atomically and
//! invalidates the (possibly never-before-seen) block range before
//! reading is guaranteed fresh data — stale cache lines can only belong
//! to *old versions*, which stay intact until reclamation proves no
//! reader or checkpoint can still hold them.
//!
//! [`crate::ds::radix::RadixTree`] publishes versions this way; this
//! module supplies the epochs that say when [`crate::sync::reclaim`] may
//! free an old one.

use crate::hw::GlobalCell;
use rack_sim::sync::Mutex;
use rack_sim::{GlobalMemory, NodeCtx, SimError};
use std::collections::HashMap;
use std::sync::Arc;

/// Reader slot value meaning "not in a read-side critical section".
const QUIESCENT: u64 = 0;

/// Rack-wide epoch state: a global epoch counter plus one reader slot per
/// node, each on its own cache line, all manipulated with fabric atomics.
#[derive(Debug)]
pub struct EpochManager {
    epoch: GlobalCell,
    slots: Vec<GlobalCell>,
    pins: Mutex<HashMap<u64, u64>>, // pin id -> pinned epoch
    next_pin: Mutex<u64>,
}

impl EpochManager {
    /// Allocate epoch state for `nodes` nodes. Epochs start at 1 so that
    /// `0` can mean "quiescent".
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc(global: &GlobalMemory, nodes: usize) -> Result<Arc<Self>, SimError> {
        let epoch = GlobalCell::alloc(global, 1)?;
        let slots = (0..nodes)
            .map(|_| GlobalCell::alloc(global, QUIESCENT))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Arc::new(EpochManager {
            epoch,
            slots,
            pins: Mutex::new(HashMap::new()),
            next_pin: Mutex::new(1),
        }))
    }

    /// Number of per-node reader slots this manager was sized for.
    pub fn nodes(&self) -> usize {
        self.slots.len()
    }

    /// Current global epoch.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn current(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        self.epoch.load(ctx)
    }

    /// Advance the global epoch; returns the new value.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn advance(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        Ok(self.epoch.fetch_add(ctx, 1)? + 1)
    }

    /// Pin the current epoch (checkpoint integration, paper §3.2
    /// "Reliability"): versions retired at or after the pinned epoch are
    /// protected from reclamation until [`EpochManager::unpin`]. Returns
    /// `(pin id, pinned epoch)`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn pin(&self, ctx: &NodeCtx) -> Result<(u64, u64), SimError> {
        let epoch = self.current(ctx)?;
        let mut next = self.next_pin.lock();
        let id = *next;
        *next += 1;
        self.pins.lock().insert(id, epoch);
        Ok((id, epoch))
    }

    /// Release a checkpoint pin.
    pub fn unpin(&self, pin_id: u64) {
        self.pins.lock().remove(&pin_id);
    }

    /// The smallest epoch that may still be referenced — by an in-flight
    /// reader or by a checkpoint pin. Retired versions with
    /// `retire_epoch < min_protected` are safe to free.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn min_protected(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        let mut min = self.current(ctx)?;
        for slot in &self.slots {
            let v = slot.load(ctx)?;
            if v != QUIESCENT {
                min = min.min(v);
            }
        }
        for (_, &e) in self.pins.lock().iter() {
            min = min.min(e);
        }
        Ok(min)
    }

    /// A node's RCU handle.
    ///
    /// # Panics
    ///
    /// Panics if the manager was sized for fewer nodes.
    pub fn handle(self: &Arc<Self>, node: Arc<NodeCtx>) -> RcuHandle {
        assert!(
            node.id().0 < self.slots.len(),
            "epoch manager sized for {} nodes",
            self.slots.len()
        );
        RcuHandle {
            mgr: self.clone(),
            node,
        }
    }
}

/// Per-node RCU entry point.
#[derive(Debug, Clone)]
pub struct RcuHandle {
    mgr: Arc<EpochManager>,
    node: Arc<NodeCtx>,
}

impl RcuHandle {
    /// Enter a read-side critical section.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn read_lock(&self) -> Result<RcuReadGuard, SimError> {
        let epoch = self.mgr.current(&self.node)?;
        self.mgr.slots[self.node.id().0].store(&self.node, epoch)?;
        Ok(RcuReadGuard {
            mgr: self.mgr.clone(),
            node: self.node.clone(),
            epoch,
        })
    }

    /// The shared epoch manager.
    pub fn manager(&self) -> &Arc<EpochManager> {
        &self.mgr
    }

    /// The node this handle belongs to.
    pub fn node(&self) -> &Arc<NodeCtx> {
        &self.node
    }
}

/// An active read-side critical section; exits on drop.
#[derive(Debug)]
pub struct RcuReadGuard {
    mgr: Arc<EpochManager>,
    node: Arc<NodeCtx>,
    epoch: u64,
}

impl RcuReadGuard {
    /// The epoch this reader entered at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for RcuReadGuard {
    fn drop(&mut self) {
        let _ = self.mgr.slots[self.node.id().0].store(&self.node, QUIESCENT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    use crate::alloc::object::GlobalAllocator;
    use crate::ds::radix::{RadixTree, FANOUT};
    use crate::sync::reclaim::RetireList;

    /// Bytes of one radix node: the block each update displaces.
    const NODE_BYTES: usize = FANOUT * 8;

    /// A one-level radix tree, so every update publishes one fresh node
    /// and retires exactly one old one.
    fn setup() -> (
        Rack,
        GlobalAllocator,
        Arc<EpochManager>,
        RetireList,
        RadixTree,
    ) {
        let rack = Rack::new(RackConfig::small_test());
        let alloc = GlobalAllocator::new(rack.global().clone());
        let mgr = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let tree = RadixTree::alloc(rack.global(), 1).unwrap();
        (rack, alloc, mgr, RetireList::new(), tree)
    }

    #[test]
    fn active_reader_blocks_reclamation() {
        let (rack, alloc, mgr, retired, tree) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        tree.insert(&n0, &alloc, &mgr, &retired, 1, 10).unwrap();

        let guard = mgr.handle(n1.clone()).read_lock().unwrap();
        tree.insert(&n0, &alloc, &mgr, &retired, 1, 20).unwrap();
        assert_eq!(retired.pending(), 1);
        // Reader from before the retire epoch: nothing reclaimable.
        assert_eq!(retired.reclaim(&n0, &mgr, &alloc).unwrap(), 0);
        drop(guard);
        assert_eq!(retired.reclaim(&n0, &mgr, &alloc).unwrap(), 1);
        assert_eq!(retired.pending(), 0);
    }

    #[test]
    fn checkpoint_pin_blocks_reclamation() {
        let (rack, alloc, mgr, retired, tree) = setup();
        let n0 = rack.node(0);
        tree.insert(&n0, &alloc, &mgr, &retired, 1, 10).unwrap();

        let (pin, _) = mgr.pin(&n0).unwrap();
        tree.insert(&n0, &alloc, &mgr, &retired, 1, 20).unwrap();
        assert_eq!(
            retired.reclaim(&n0, &mgr, &alloc).unwrap(),
            0,
            "pin protects old version"
        );
        mgr.unpin(pin);
        assert_eq!(retired.reclaim(&n0, &mgr, &alloc).unwrap(), 1);
    }

    #[test]
    fn reclaimed_blocks_return_to_allocator() {
        let (rack, alloc, mgr, retired, tree) = setup();
        let n0 = rack.node(0);
        tree.insert(&n0, &alloc, &mgr, &retired, 1, 10).unwrap();
        tree.insert(&n0, &alloc, &mgr, &retired, 1, 20).unwrap();
        retired.reclaim(&n0, &mgr, &alloc).unwrap();
        assert_eq!(
            alloc.free_count(NODE_BYTES),
            1,
            "old node block is reusable"
        );
    }

    #[test]
    fn stale_cache_of_reused_block_is_defeated() {
        // A node caches a version block, the block is reclaimed and reused
        // for a new version; invalidate-before-read must still win.
        let (rack, alloc, mgr, retired, tree) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let h1 = mgr.handle(n1.clone());

        tree.insert(&n0, &alloc, &mgr, &retired, 1, 0xAAAA).unwrap();
        {
            let g = h1.read_lock().unwrap();
            assert_eq!(tree.get(&n1, &g, 1).unwrap(), Some(0xAAAA));
        }
        tree.insert(&n0, &alloc, &mgr, &retired, 1, 0xBBBB).unwrap();
        retired.reclaim(&n0, &mgr, &alloc).unwrap();
        assert_eq!(alloc.free_count(NODE_BYTES), 1);
        // The next version lands in the block node 1 still caches.
        tree.insert(&n0, &alloc, &mgr, &retired, 1, 0xCCCC).unwrap();
        assert_eq!(alloc.free_count(NODE_BYTES), 0, "reclaimed block reused");
        let g = h1.read_lock().unwrap();
        assert_eq!(tree.get(&n1, &g, 1).unwrap(), Some(0xCCCC));
    }

    #[test]
    fn min_protected_tracks_oldest_reader() {
        let (rack, _, mgr, _, _) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let e0 = mgr.current(&n0).unwrap();
        let _g = mgr.handle(n1.clone()).read_lock().unwrap();
        mgr.advance(&n0).unwrap();
        mgr.advance(&n0).unwrap();
        assert_eq!(mgr.min_protected(&n0).unwrap(), e0);
    }
}
