//! Quiescence-based synchronization: epoch RCU with multi-version cells.
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

use crate::alloc::object::GlobalAllocator;
use crate::hw::GlobalCell;
use crate::sync::reclaim::RetireList;
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

/// A multi-version value in global memory updated RCU-style.
///
/// Block layout: `[len: u64][payload...]`, allocated from the
/// [`GlobalAllocator`]. The cell itself is one atomic pointer word.
#[derive(Debug, Clone, Copy)]
pub struct VersionedCell {
    ptr: GlobalCell,
}

impl VersionedCell {
    /// Allocate an empty cell.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc(global: &GlobalMemory) -> Result<Self, SimError> {
        Ok(VersionedCell {
            ptr: GlobalCell::alloc(global, 0)?,
        })
    }

    /// Publish a new version containing `bytes`; the previous version is
    /// retired into `retired` at the current epoch.
    ///
    /// # Errors
    ///
    /// Propagates allocation and memory errors.
    pub fn write(
        &self,
        ctx: &NodeCtx,
        alloc: &GlobalAllocator,
        mgr: &EpochManager,
        retired: &RetireList,
        bytes: &[u8],
    ) -> Result<(), SimError> {
        let total = 8 + bytes.len();
        let block = alloc.alloc(ctx, total)?;
        ctx.write_u64(block, bytes.len() as u64)?;
        ctx.write(block.offset(8), bytes)?;
        ctx.writeback(block, total);
        // Swing the pointer; loop for concurrent writers.
        loop {
            let old = self.ptr.load(ctx)?;
            if self.ptr.compare_exchange(ctx, old, block.0)? == old {
                if old != 0 {
                    let old_addr = rack_sim::GAddr(old);
                    // Read the old header to learn its size for freeing.
                    ctx.invalidate(old_addr, 8);
                    let old_len = ctx.read_u64(old_addr)? as usize;
                    // Retire at the *pre-advance* epoch: readers that
                    // entered at it may still hold the old pointer, and
                    // the advance makes the retire epoch strictly older
                    // than any future quiescent state.
                    let epoch = mgr.current(ctx)?;
                    mgr.advance(ctx)?;
                    retired.retire(old_addr, 8 + old_len, epoch);
                }
                return Ok(());
            }
        }
    }

    /// Read the current version while holding an RCU read guard.
    ///
    /// Returns `None` if the cell has never been written.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn read(&self, ctx: &NodeCtx, _guard: &RcuReadGuard) -> Result<Option<Vec<u8>>, SimError> {
        let p = self.ptr.load(ctx)?;
        if p == 0 {
            return Ok(None);
        }
        let block = rack_sim::GAddr(p);
        // Invalidate before reading: the block address is fresh, but this
        // node may have cached these lines from a previous version that
        // was reclaimed and reused.
        ctx.invalidate(block, 8);
        let len = ctx.read_u64(block)? as usize;
        ctx.invalidate(block.offset(8), len);
        let mut buf = vec![0u8; len];
        ctx.read(block.offset(8), &mut buf)?;
        Ok(Some(buf))
    }

    /// Whether a version has ever been published.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn is_empty(&self, ctx: &NodeCtx) -> Result<bool, SimError> {
        Ok(self.ptr.load(ctx)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, GlobalAllocator, Arc<EpochManager>, RetireList) {
        let rack = Rack::new(RackConfig::small_test());
        let alloc = GlobalAllocator::new(rack.global().clone());
        let mgr = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        (rack, alloc, mgr, RetireList::new())
    }

    #[test]
    fn versions_visible_across_nodes_without_manual_flushing() {
        let (rack, alloc, mgr, retired) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let cell = VersionedCell::alloc(rack.global()).unwrap();
        let h1 = mgr.handle(n1.clone());

        cell.write(&n0, &alloc, &mgr, &retired, b"v1").unwrap();
        let g = h1.read_lock().unwrap();
        assert_eq!(cell.read(&n1, &g).unwrap().unwrap(), b"v1");
        drop(g);

        cell.write(&n0, &alloc, &mgr, &retired, b"version-two")
            .unwrap();
        let g = h1.read_lock().unwrap();
        assert_eq!(cell.read(&n1, &g).unwrap().unwrap(), b"version-two");
    }

    #[test]
    fn empty_cell_reads_none() {
        let (rack, _, mgr, _) = setup();
        let n0 = rack.node(0);
        let cell = VersionedCell::alloc(rack.global()).unwrap();
        let g = mgr.handle(n0.clone()).read_lock().unwrap();
        assert!(cell.read(&n0, &g).unwrap().is_none());
        assert!(cell.is_empty(&n0).unwrap());
    }

    #[test]
    fn active_reader_blocks_reclamation() {
        let (rack, alloc, mgr, retired) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let cell = VersionedCell::alloc(rack.global()).unwrap();
        cell.write(&n0, &alloc, &mgr, &retired, b"old").unwrap();

        let guard = mgr.handle(n1.clone()).read_lock().unwrap();
        cell.write(&n0, &alloc, &mgr, &retired, b"new").unwrap();
        assert_eq!(retired.pending(), 1);
        // Reader from before the retire epoch: nothing reclaimable.
        assert_eq!(retired.reclaim(&n0, &mgr, &alloc).unwrap(), 0);
        drop(guard);
        assert_eq!(retired.reclaim(&n0, &mgr, &alloc).unwrap(), 1);
        assert_eq!(retired.pending(), 0);
    }

    #[test]
    fn checkpoint_pin_blocks_reclamation() {
        let (rack, alloc, mgr, retired) = setup();
        let n0 = rack.node(0);
        let cell = VersionedCell::alloc(rack.global()).unwrap();
        cell.write(&n0, &alloc, &mgr, &retired, b"a").unwrap();

        let (pin, _) = mgr.pin(&n0).unwrap();
        cell.write(&n0, &alloc, &mgr, &retired, b"b").unwrap();
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
        let (rack, alloc, mgr, retired) = setup();
        let n0 = rack.node(0);
        let cell = VersionedCell::alloc(rack.global()).unwrap();
        cell.write(&n0, &alloc, &mgr, &retired, &[1u8; 40]).unwrap();
        cell.write(&n0, &alloc, &mgr, &retired, &[2u8; 40]).unwrap();
        retired.reclaim(&n0, &mgr, &alloc).unwrap();
        assert_eq!(alloc.free_count(48), 1, "old 48-byte block is reusable");
    }

    #[test]
    fn stale_cache_of_reused_block_is_defeated() {
        // A node caches version blocks, the block is reclaimed and reused
        // for a new version; invalidate-before-read must still win.
        let (rack, alloc, mgr, retired) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let cell = VersionedCell::alloc(rack.global()).unwrap();
        let h1 = mgr.handle(n1.clone());

        cell.write(&n0, &alloc, &mgr, &retired, b"AAAA").unwrap();
        {
            let g = h1.read_lock().unwrap();
            assert_eq!(cell.read(&n1, &g).unwrap().unwrap(), b"AAAA");
        }
        cell.write(&n0, &alloc, &mgr, &retired, b"BBBB").unwrap();
        retired.reclaim(&n0, &mgr, &alloc).unwrap();
        // Reuse the reclaimed block for the next version.
        cell.write(&n0, &alloc, &mgr, &retired, b"CCCC").unwrap();
        let g = h1.read_lock().unwrap();
        assert_eq!(cell.read(&n1, &g).unwrap().unwrap(), b"CCCC");
    }

    #[test]
    fn min_protected_tracks_oldest_reader() {
        let (rack, _, mgr, _) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let e0 = mgr.current(&n0).unwrap();
        let _g = mgr.handle(n1.clone()).read_lock().unwrap();
        mgr.advance(&n0).unwrap();
        mgr.advance(&n0).unwrap();
        assert_eq!(mgr.min_protected(&n0).unwrap(), e0);
    }
}
