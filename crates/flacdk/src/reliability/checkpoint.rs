//! Checkpointing integrated with quiescence-based synchronization.
//!
//! Paper §3.2: *"Data checkpointing can be incorporated with multiple
//! object versions in quiescence-based synchronization."* A checkpoint
//! here pins the RCU epoch for its duration, so every version it copies
//! is guaranteed to stay allocated while being read (reclamation respects
//! pins — see [`crate::sync::reclaim`]). Snapshots are themselves stored
//! in global memory with per-object checksums ([`crate::wire::checksum`])
//! so restores can verify integrity.
//!
//! A capture reads every object once. Capturing over a previous
//! checkpoint ([`CheckpointManager::capture_over`]) copies only the
//! objects whose checksum changed and shares the previous copy of the
//! rest; discarding the superseded checkpoint then frees only the copies
//! the new one does not share ([`CheckpointManager::discard_except`]).
//! Reuse trusts checksum equality, as [`CheckpointManager::restore`]'s
//! integrity check and the fault detector already do.

use crate::alloc::object::GlobalAllocator;
use crate::sync::rcu::EpochManager;
use crate::wire::checksum;
use rack_sim::{GAddr, NodeCtx, SimError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One object captured in a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Caller's object identifier.
    pub id: u64,
    /// The object's live location at capture time.
    pub src: GAddr,
    /// Where the snapshot copy lives.
    pub copy: GAddr,
    /// Object length in bytes.
    pub len: usize,
    /// Checksum of the captured content.
    pub sum: u64,
}

/// A completed checkpoint of a set of objects.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    entries: BTreeMap<u64, CheckpointEntry>,
    /// Epoch pinned while the checkpoint was taken.
    pub epoch: u64,
    /// Simulated time at which the capture completed.
    pub at_ns: u64,
}

impl Checkpoint {
    /// Entry for object `id`, if captured.
    pub fn entry(&self, id: u64) -> Option<&CheckpointEntry> {
        self.entries.get(&id)
    }

    /// Number of captured objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total snapshot bytes.
    pub fn bytes(&self) -> usize {
        self.entries.values().map(|e| e.len).sum()
    }

    /// All entries (deterministic order by id).
    pub fn entries(&self) -> Vec<CheckpointEntry> {
        self.entries.values().copied().collect()
    }
}

/// Captures and restores checkpoints. Consecutive checkpoints of the same
/// objects may share copies ([`CheckpointManager::capture_over`]); a
/// copy is freed only when no kept checkpoint shares it.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    alloc: GlobalAllocator,
    epochs: Arc<EpochManager>,
}

impl CheckpointManager {
    /// A manager drawing snapshot storage from `alloc` and pinning
    /// epochs on `epochs`.
    pub fn new(alloc: GlobalAllocator, epochs: Arc<EpochManager>) -> Self {
        CheckpointManager { alloc, epochs }
    }

    /// Capture `(id, addr, len)` objects into a new checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates allocation and memory errors; a poisoned source object
    /// fails the checkpoint (callers should checkpoint *before* faults).
    pub fn capture(
        &self,
        ctx: &NodeCtx,
        objects: &[(u64, GAddr, usize)],
    ) -> Result<Checkpoint, SimError> {
        self.capture_over(ctx, None, objects)
    }

    /// Capture `objects`, reading each once. An object whose location,
    /// length and checksum match its entry in `base` shares `base`'s copy;
    /// only the others are copied. Retire `base` afterwards with
    /// [`CheckpointManager::discard_except`], keeping the new checkpoint.
    ///
    /// A failed capture frees every copy it made and shares nothing.
    ///
    /// # Errors
    ///
    /// As [`CheckpointManager::capture`].
    pub fn capture_over(
        &self,
        ctx: &NodeCtx,
        base: Option<&Checkpoint>,
        objects: &[(u64, GAddr, usize)],
    ) -> Result<Checkpoint, SimError> {
        let (pin, epoch) = self.epochs.pin(ctx)?;
        let mut ckpt = Checkpoint {
            entries: BTreeMap::new(),
            epoch,
            at_ns: 0,
        };
        let result = self.copy_changed(ctx, base, objects, &mut ckpt.entries);
        self.epochs.unpin(pin);
        if let Err(e) = result {
            self.discard_except(ctx, ckpt, base);
            return Err(e);
        }
        ckpt.at_ns = ctx.clock().now();
        Ok(ckpt)
    }

    fn copy_changed(
        &self,
        ctx: &NodeCtx,
        base: Option<&Checkpoint>,
        objects: &[(u64, GAddr, usize)],
        entries: &mut BTreeMap<u64, CheckpointEntry>,
    ) -> Result<(), SimError> {
        let mut buf = Vec::new();
        for &(id, src, len) in objects {
            ctx.invalidate(src, len);
            buf.resize(len, 0);
            ctx.read(src, &mut buf)?;
            let sum = checksum(&buf);
            let unchanged = base
                .and_then(|b| b.entry(id))
                .filter(|e| e.src == src && e.len == len && e.sum == sum);
            if let Some(e) = unchanged {
                entries.insert(id, *e);
                continue;
            }
            let copy = self.alloc.alloc(ctx, len)?;
            // Recorded before the write so a failed capture frees it.
            entries.insert(
                id,
                CheckpointEntry {
                    id,
                    src,
                    copy,
                    len,
                    sum,
                },
            );
            ctx.write(copy, &buf)?;
            ctx.writeback(copy, len);
        }
        Ok(())
    }

    /// Restore object `id` from `ckpt` back to its source location,
    /// scrubbing poisoned words first. Returns the restored byte count.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if `id` was not captured or the snapshot
    /// itself fails its checksum; memory errors are propagated.
    pub fn restore(&self, ctx: &NodeCtx, ckpt: &Checkpoint, id: u64) -> Result<usize, SimError> {
        let e = ckpt
            .entry(id)
            .ok_or_else(|| SimError::Protocol(format!("object {id} not in checkpoint")))?;
        ctx.invalidate(e.copy, e.len);
        let mut buf = vec![0u8; e.len];
        ctx.read(e.copy, &mut buf)?;
        if checksum(&buf) != e.sum {
            return Err(SimError::Protocol(format!(
                "checkpoint copy of object {id} corrupt"
            )));
        }
        // Scrub any poison at the destination, then rewrite and publish.
        ctx.global().scrub(e.src, e.len);
        ctx.invalidate(e.src, e.len);
        ctx.write(e.src, &buf)?;
        ctx.writeback(e.src, e.len);
        Ok(e.len)
    }

    /// Release a checkpoint's snapshot storage.
    pub fn discard(&self, ctx: &NodeCtx, ckpt: Checkpoint) {
        self.discard_except(ctx, ckpt, None);
    }

    /// Release the copies of `ckpt` that `kept` does not share: the
    /// superseded checkpoint after [`CheckpointManager::capture_over`]
    /// (keeping the new one), or a new one abandoned in favour of its
    /// base.
    pub fn discard_except(&self, ctx: &NodeCtx, ckpt: Checkpoint, kept: Option<&Checkpoint>) {
        for e in ckpt.entries.values() {
            let shared = kept.and_then(|k| k.entry(e.id)).map(|k| k.copy) == Some(e.copy);
            if !shared {
                self.alloc.free(ctx, e.copy, e.len);
            }
        }
    }

    /// The allocator backing snapshot storage.
    pub fn allocator(&self) -> &GlobalAllocator {
        &self.alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, CheckpointManager) {
        let rack = Rack::new(RackConfig::small_test());
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        (rack.clone(), CheckpointManager::new(alloc, epochs))
    }

    #[test]
    fn capture_then_restore_after_poison() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let obj = rack.global().alloc(64, 8).unwrap();
        n0.write(obj, &[9; 64]).unwrap();
        n0.writeback(obj, 64);

        let ckpt = cm.capture(&n0, &[(1, obj, 64)]).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert_eq!(ckpt.bytes(), 64);

        rack.faults().poison_memory(rack.global(), obj, 16, 100);
        n0.invalidate(obj, 64); // drop cached copy so the fault is visible
        assert!(n0.read_u64(obj).is_err());

        let restored = cm.restore(&n0, &ckpt, 1).unwrap();
        assert_eq!(restored, 64);
        let mut buf = [0u8; 64];
        n0.invalidate(obj, 64);
        n0.read(obj, &mut buf).unwrap();
        assert_eq!(buf, [9; 64]);
    }

    #[test]
    fn restore_unknown_object_fails() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let ckpt = cm.capture(&n0, &[]).unwrap();
        assert!(ckpt.is_empty());
        assert!(cm.restore(&n0, &ckpt, 1).is_err());
    }

    #[test]
    fn capture_over_copies_only_changed_objects() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let a = rack.global().alloc(64, 8).unwrap();
        let b = rack.global().alloc(64, 8).unwrap();
        n0.write(a, &[1; 64]).unwrap();
        n0.write(b, &[2; 64]).unwrap();
        n0.writeback(a, 64);
        n0.writeback(b, 64);
        let objects = [(1u64, a, 64usize), (2, b, 64)];
        let base = cm.capture(&n0, &objects).unwrap();

        n0.write(b, &[3; 64]).unwrap();
        n0.writeback(b, 64);
        let writes = n0.stats().snapshot().global_writes;
        let next = cm.capture_over(&n0, Some(&base), &objects).unwrap();
        assert_eq!(
            n0.stats().snapshot().global_writes - writes,
            1,
            "only the changed object is copied"
        );
        // The unchanged object shares the base copy; the changed one got
        // a fresh copy.
        assert_eq!(next.entry(1).unwrap().copy, base.entry(1).unwrap().copy);
        assert_ne!(next.entry(2).unwrap().copy, base.entry(2).unwrap().copy);

        // Retiring the base frees only the copy the new one dropped.
        cm.discard_except(&n0, base, Some(&next));
        assert_eq!(cm.allocator().free_count(64), 1);

        // Restoring from the new checkpoint yields the new data, and the
        // shared copy still verifies.
        rack.global().poison(b, 64);
        cm.restore(&n0, &next, 2).unwrap();
        cm.restore(&n0, &next, 1).unwrap();
        let mut buf = [0u8; 64];
        n0.invalidate(b, 64);
        n0.read(b, &mut buf).unwrap();
        assert_eq!(buf, [3; 64]);
    }

    #[test]
    fn failed_capture_frees_its_copies_and_shares_nothing() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let a = rack.global().alloc(64, 8).unwrap();
        let b = rack.global().alloc(64, 8).unwrap();
        let objects = [(1u64, a, 64usize), (2, b, 64)];
        let base = cm.capture(&n0, &objects).unwrap();
        n0.write(a, &[5; 64]).unwrap();
        n0.writeback(a, 64);
        rack.global().poison(b, 8);
        assert!(cm.capture_over(&n0, Some(&base), &objects).is_err());
        assert_eq!(
            cm.allocator().free_count(64),
            1,
            "the new copy of `a` is freed, the base's copies are not"
        );
        rack.global().scrub(b, 8);
        assert_eq!(cm.restore(&n0, &base, 1).unwrap(), 64);
    }

    #[test]
    fn corrupt_snapshot_refuses_restore() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let obj = rack.global().alloc(64, 8).unwrap();
        let ckpt = cm.capture(&n0, &[(1, obj, 64)]).unwrap();
        // Corrupt the snapshot copy itself.
        let copy = ckpt.entry(1).unwrap().copy;
        rack.node(1).store_uncached_u64(copy, 0xdead).unwrap();
        assert!(matches!(
            cm.restore(&n0, &ckpt, 1),
            Err(SimError::Protocol(_))
        ));
    }

    #[test]
    fn discard_recycles_snapshot_storage() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let obj = rack.global().alloc(64, 8).unwrap();
        let ckpt = cm.capture(&n0, &[(1, obj, 64)]).unwrap();
        cm.discard(&n0, ckpt);
        assert_eq!(cm.allocator().free_count(64), 1);
    }
}
