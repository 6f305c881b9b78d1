//! Interval-based memory reclamation for retired versions.
//!
//! Retired version blocks carry the epoch at which they were unlinked.
//! A block is freed once `retire_epoch < min_protected`, where
//! `min_protected` folds in **both** in-flight readers and checkpoint
//! pins — the paper's co-design of reclamation with checkpointing
//! (§3.2 "Reliability": *"This integration requires to modify memory
//! reclamation algorithm to account for both checkpointing period and
//! pending references in concurrent execution and stale CPU cache"*).

use crate::alloc::object::GlobalAllocator;
use crate::sync::rcu::EpochManager;
use rack_sim::sync::Mutex;
use rack_sim::{GAddr, NodeCtx, SimError};
use std::sync::Arc;

/// One retired block awaiting quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Block base address.
    pub addr: GAddr,
    /// Block length in bytes (allocation request size).
    pub len: usize,
    /// Epoch at which the block was unlinked.
    pub epoch: u64,
}

/// A shared list of retired blocks. Clone-cheap; clones share the list.
#[derive(Debug, Clone, Default)]
pub struct RetireList {
    inner: Arc<Mutex<Vec<Retired>>>,
}

impl RetireList {
    /// An empty retire list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a block unlinked at `epoch`.
    pub fn retire(&self, addr: GAddr, len: usize, epoch: u64) {
        self.inner.lock().push(Retired { addr, len, epoch });
    }

    /// Blocks still awaiting reclamation.
    pub fn pending(&self) -> usize {
        self.inner.lock().len()
    }

    /// Free every block whose retire epoch precedes the minimum protected
    /// epoch. Returns the number of blocks freed.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from the epoch scan.
    pub fn reclaim(
        &self,
        ctx: &NodeCtx,
        mgr: &EpochManager,
        alloc: &GlobalAllocator,
    ) -> Result<usize, SimError> {
        let min = mgr.min_protected(ctx)?;
        let mut freed = 0;
        let mut list = self.inner.lock();
        list.retain(|r| {
            if r.epoch < min {
                alloc.free(ctx, r.addr, r.len);
                freed += 1;
                false
            } else {
                true
            }
        });
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    #[test]
    fn reclaim_only_past_min_protected() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let alloc = GlobalAllocator::new(rack.global().clone());
        let mgr = EpochManager::alloc(rack.global(), 2).unwrap();
        let list = RetireList::new();

        let a = alloc.alloc(&n0, 64).unwrap();
        let e1 = mgr.current(&n0).unwrap();
        list.retire(a, 64, e1);
        // Retired at the current epoch: not yet reclaimable.
        assert_eq!(list.reclaim(&n0, &mgr, &alloc).unwrap(), 0);
        mgr.advance(&n0).unwrap();
        assert_eq!(list.reclaim(&n0, &mgr, &alloc).unwrap(), 1);
    }

    #[test]
    fn clones_share_the_list() {
        let list = RetireList::new();
        let list2 = list.clone();
        list.retire(GAddr(0), 64, 1);
        assert_eq!(list2.pending(), 1);
    }
}
