//! The staged migration engine, for a 4 KiB page and a 2 MiB region
//! alike.
//!
//! A [`Migration`] moves a run of base pages chosen by a [`PageSize`] —
//! one page, or the [`PAGES_PER_HUGE`] pages of a 2 MiB region — in a
//! three-step protocol in which the **old frames stay authoritative
//! until the final remap**:
//!
//! 1. [`Migration::begin`] — publish every page's mapping with the
//!    `Migrating` guard bit set. Concurrent accessors observe the bit and
//!    retry ([`SimError::WouldBlock`] from `AddressSpace`,
//!    `FaultResolution::Retry` from the fault handler); nobody can read
//!    the half-copied destination.
//! 2. [`Migration::copy`] — copy the bytes old → new (coherently:
//!    invalidate-before-read, writeback-after-write).
//! 3. [`Migration::commit`] — publish one PTE of the migration's size at
//!    the head with the guard cleared, retire the interior base entries,
//!    then drive **one** ranged rack-wide TLB shootdown via the caller's
//!    closure so no stale translation survives.
//!
//! [`Migration::abort`] re-publishes the original mappings from *any*
//! live node, which is exactly the crash-consistency story: if the
//! migrating node dies between steps, the old copy is still authoritative
//! and a survivor aborts the half-done migration without data loss.
//!
//! [`split_region`] is the one remap without a copy: it turns a huge
//! mapping back into base pages over the same bytes.

use flacos_mem::addr::VirtAddr;
use flacos_mem::{huge_base, AddressSpace, PageSize, PhysFrame, Pte, PAGES_PER_HUGE, PAGE_SIZE};
use rack_sim::{LAddr, NodeCtx, SimError};
use std::sync::Arc;

/// A page-aligned allocator over one node's local (bump) memory with one
/// free list per page size, so demoted pages and split regions recycle
/// their local frames.
#[derive(Debug, Default)]
pub struct LocalFramePool {
    /// Recycled spans, indexed by `size_slot`.
    free: [Vec<LAddr>; 2],
}

fn size_slot(size: PageSize) -> usize {
    match size {
        PageSize::Base => 0,
        PageSize::Huge => 1,
    }
}

impl LocalFramePool {
    /// An empty pool (frames are carved from `ctx.local_alloc` on
    /// demand).
    pub fn new() -> Self {
        LocalFramePool::default()
    }

    /// Allocate one contiguous, page-aligned local span of `size` bytes
    /// on `ctx`'s node.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfMemory`] when local memory is exhausted.
    pub fn alloc(&mut self, ctx: &NodeCtx, size: PageSize) -> Result<LAddr, SimError> {
        if let Some(f) = self.free[size_slot(size)].pop() {
            return Ok(f);
        }
        // The local bump allocator aligns to 8; over-allocate by a page
        // and round up to a page boundary.
        let raw = ctx.local_alloc(size.bytes() + PAGE_SIZE)?;
        Ok(LAddr((raw.0 + PAGE_SIZE - 1) & !(PAGE_SIZE - 1)))
    }

    /// Return a span of `size` bytes for reuse.
    pub fn free(&mut self, frame: LAddr, size: PageSize) {
        self.free[size_slot(size)].push(frame);
    }

    /// Spans of `size` currently recycled and ready.
    pub fn free_frames(&self, size: PageSize) -> usize {
        self.free[size_slot(size)].len()
    }
}

/// `frame` advanced by `bytes` (staying in the same memory kind).
fn frame_at(frame: PhysFrame, bytes: u64) -> PhysFrame {
    match frame {
        PhysFrame::Global(a) => PhysFrame::Global(a.offset(bytes)),
        PhysFrame::Local(n, a) => PhysFrame::Local(n, LAddr(a.0 + bytes as usize)),
    }
}

/// One in-flight migration of a page or a 2 MiB region (either
/// direction between tiers): `size.pages()` base pages move into one
/// contiguous destination span and commit as one PTE of `size` with one
/// ranged TLB shootdown.
#[derive(Debug, Clone)]
pub struct Migration {
    asid: u64,
    head: u64,
    size: PageSize,
    /// Pre-migration PTEs, one per base page, in vpn order.
    old: Vec<Pte>,
    /// Base of the contiguous destination span.
    new_frame: PhysFrame,
    copied: bool,
}

impl Migration {
    /// Stage 1: guard the `size.pages()` base pages from `head` with the
    /// `Migrating` bit, in vpn order. Requires every page mapped as a
    /// base page, none already migrating, and uniform writability (the
    /// committed PTE has one permission bit). The old frames remain
    /// authoritative.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when a page is not eligible — including a
    /// vpn inside a huge mapping — and then no page is guarded. A fabric
    /// error while guarding rolls the guards set so far back and
    /// propagates.
    ///
    /// # Panics
    ///
    /// Panics when `head` is not aligned to `size`.
    pub fn begin(
        ctx: &Arc<NodeCtx>,
        space: &AddressSpace,
        head: u64,
        size: PageSize,
        new_frame: PhysFrame,
    ) -> Result<Self, SimError> {
        assert_eq!(
            head % size.pages(),
            0,
            "migration head must be {size:?}-aligned"
        );
        let mut old: Vec<Pte> = Vec::with_capacity(size.pages() as usize);
        for vpn in head..head + size.pages() {
            let pte = space
                .translate(ctx, VirtAddr::from_vpn(vpn))?
                .ok_or_else(|| SimError::Protocol(format!("cannot migrate unmapped vpn {vpn}")))?;
            if pte.migrating {
                return Err(SimError::Protocol(format!(
                    "vpn {vpn} is already migrating"
                )));
            }
            if pte.page_size != PageSize::Base {
                return Err(SimError::Protocol(format!(
                    "vpn {vpn} lies in the huge mapping at {}",
                    huge_base(vpn)
                )));
            }
            if old.first().is_some_and(|p| p.writable != pte.writable) {
                return Err(SimError::Protocol(format!(
                    "mixed page permissions at vpn {vpn}"
                )));
            }
            old.push(pte);
        }
        // All eligible: guard every page. A failure mid-way rolls the
        // already-guarded prefix back so no page is left stuck.
        for (i, pte) in old.iter().enumerate() {
            if let Err(e) = space.map(ctx, head + i as u64, pte.begin_migration()) {
                for (j, prev) in old.iter().enumerate().take(i) {
                    let _ = space.map(ctx, head + j as u64, *prev);
                }
                return Err(e);
            }
        }
        Ok(Migration {
            asid: space.asid(),
            head,
            size,
            old,
            new_frame,
            copied: false,
        })
    }

    /// Stage 2: copy every page from its old (possibly scattered) frame
    /// into the contiguous destination span.
    ///
    /// # Errors
    ///
    /// Fabric/protocol errors propagate (e.g. a foreign local frame).
    pub fn copy(&mut self, ctx: &NodeCtx, space: &AddressSpace) -> Result<(), SimError> {
        let mut page = vec![0u8; PAGE_SIZE];
        for (i, pte) in self.old.iter().enumerate() {
            space.read_frame(ctx, pte.frame, &mut page)?;
            space.write_frame(ctx, frame_at(self.new_frame, (i * PAGE_SIZE) as u64), &page)?;
        }
        self.copied = true;
        Ok(())
    }

    /// Stage 3: publish one PTE of the migration's size at the head
    /// (guard cleared), unmap the interior base entries, and drive
    /// **one** shootdown through `shoot(asid, head, span)` with span
    /// `size.pages()`. Returns the displaced PTEs so the caller can free
    /// or release their frames.
    ///
    /// The head is remapped *before* the interior entries are unmapped:
    /// an interior vpn either still resolves through its guarded base
    /// entry (and retries) or falls back to the committed huge mapping —
    /// there is no window where it is unmapped.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when called before [`Migration::copy`];
    /// fabric errors propagate.
    pub fn commit(
        self,
        ctx: &Arc<NodeCtx>,
        space: &AddressSpace,
        shoot: &mut dyn FnMut(u64, u64, u64) -> Result<(), SimError>,
    ) -> Result<Vec<Pte>, SimError> {
        if !self.copied {
            return Err(SimError::Protocol(format!(
                "commit of vpn {} before copy",
                self.head
            )));
        }
        let mut pte = Pte::new(self.new_frame, self.old[0].writable);
        if self.size == PageSize::Huge {
            pte = pte.huge();
        }
        space.map(ctx, self.head, pte)?;
        for vpn in self.head + 1..self.head + self.size.pages() {
            space.unmap(ctx, vpn)?;
        }
        shoot(self.asid, self.head, self.size.pages())?;
        Ok(self.old)
    }

    /// Roll back: re-publish every original mapping with its guard
    /// cleared. Callable from any live node — the crash-recovery path
    /// when the migrating node died mid-flight.
    ///
    /// # Errors
    ///
    /// Fabric errors propagate.
    pub fn abort(&self, ctx: &Arc<NodeCtx>, space: &AddressSpace) -> Result<(), SimError> {
        for (i, pte) in self.old.iter().enumerate() {
            space.map(ctx, self.head + i as u64, *pte)?;
        }
        Ok(())
    }

    /// The head vpn: the page, or the region's first page.
    pub fn vpn(&self) -> u64 {
        self.head
    }

    /// The authoritative pre-migration mappings, in vpn order.
    pub fn old(&self) -> &[Pte] {
        &self.old
    }

    /// The destination span base.
    pub fn new_frame(&self) -> PhysFrame {
        self.new_frame
    }
}

/// Split the huge mapping at `head_vpn` back into 512 base PTEs over the
/// same physical bytes (no copy): interior pages are mapped to their
/// offsets within the huge frame with the same permission bit, then the
/// head is downgraded, then **one** ranged shootdown retires stale huge
/// translations. Returns the displaced huge PTE.
///
/// Interior vpns never go unmapped: until each base entry is published,
/// translation falls back to the (still-correct) huge entry over the
/// identical frame bytes.
///
/// # Errors
///
/// [`SimError::Protocol`] when `head_vpn` holds no huge, non-migrating
/// mapping; fabric errors propagate.
///
/// # Panics
///
/// Panics when `head_vpn` is not 512-aligned.
pub fn split_region(
    ctx: &Arc<NodeCtx>,
    space: &AddressSpace,
    head_vpn: u64,
    shoot_range: &mut dyn FnMut(u64, u64, u64) -> Result<(), SimError>,
) -> Result<Pte, SimError> {
    assert_eq!(
        head_vpn,
        huge_base(head_vpn),
        "region must start at a 2 MiB boundary"
    );
    let head = space
        .translate(ctx, VirtAddr::from_vpn(head_vpn))?
        .ok_or_else(|| SimError::Protocol(format!("no mapping at region head {head_vpn}")))?;
    if head.page_size != PageSize::Huge {
        return Err(SimError::Protocol(format!(
            "vpn {head_vpn} is not a huge mapping"
        )));
    }
    if head.migrating {
        return Err(SimError::Protocol(format!(
            "region {head_vpn} is mid-migration"
        )));
    }
    for i in 1..PAGES_PER_HUGE {
        space.map(
            ctx,
            head_vpn + i,
            Pte::new(frame_at(head.frame, i * PAGE_SIZE as u64), head.writable),
        )?;
    }
    space.map(ctx, head_vpn, Pte::new(head.frame, head.writable))?;
    shoot_range(space.asid(), head_vpn, PAGES_PER_HUGE)?;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flacdk::alloc::GlobalAllocator;
    use flacdk::sync::rcu::EpochManager;
    use flacdk::sync::reclaim::RetireList;
    use flacos_mem::fault::FrameAllocator;
    use flacos_mem::HUGE_PAGE_SIZE;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, AddressSpace, FrameAllocator) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space =
            AddressSpace::alloc(1, rack.global(), alloc, epochs, RetireList::new()).unwrap();
        let frames = FrameAllocator::new(rack.global().clone());
        (rack, space, frames)
    }

    #[test]
    fn full_migration_moves_bytes_and_remaps() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        let old = frames.alloc(&n0).unwrap();
        space
            .map(&n0, 3, Pte::new(PhysFrame::Global(old), true))
            .unwrap();
        space
            .write(&n0, VirtAddr::from_vpn(3), &[0xAB; 64])
            .unwrap();

        let mut pool = LocalFramePool::new();
        let dst = PhysFrame::Local(n0.id(), pool.alloc(&n0, PageSize::Base).unwrap());
        let mut m = Migration::begin(&n0, &space, 3, PageSize::Base, dst).unwrap();
        // Guarded window: accessors bounce.
        let mut buf = [0u8; 8];
        assert!(matches!(
            space.read(&n0, VirtAddr::from_vpn(3), &mut buf),
            Err(SimError::WouldBlock)
        ));
        m.copy(&n0, &space).unwrap();
        let mut shots = Vec::new();
        let displaced = m
            .commit(&n0, &space, &mut |asid, vpn, span| {
                shots.push((asid, vpn, span));
                Ok(())
            })
            .unwrap();
        assert_eq!(shots, vec![(1, 3, 1)], "a page is a span of 1");
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0].frame, PhysFrame::Global(old));

        let pte = space
            .translate(&n0, VirtAddr::from_vpn(3))
            .unwrap()
            .unwrap();
        assert_eq!(pte.frame, dst);
        assert!(!pte.migrating);
        let mut out = [0u8; 64];
        space.read(&n0, VirtAddr::from_vpn(3), &mut out).unwrap();
        assert_eq!(out, [0xAB; 64], "content travelled with the page");
    }

    #[test]
    fn abort_restores_old_mapping() {
        let (rack, space, frames) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let old = frames.alloc(&n0).unwrap();
        space
            .map(&n0, 5, Pte::new(PhysFrame::Global(old), true))
            .unwrap();
        space.write(&n0, VirtAddr::from_vpn(5), &[7u8; 32]).unwrap();

        let dst = PhysFrame::Global(frames.alloc(&n0).unwrap());
        let m = Migration::begin(&n0, &space, 5, PageSize::Base, dst).unwrap();
        // The migrating node "crashes"; a survivor aborts from node 1.
        m.abort(&n1, &space).unwrap();
        let pte = space
            .translate(&n1, VirtAddr::from_vpn(5))
            .unwrap()
            .unwrap();
        assert_eq!(pte.frame, PhysFrame::Global(old), "old copy authoritative");
        assert!(!pte.migrating);
        let mut out = [0u8; 32];
        space.read(&n1, VirtAddr::from_vpn(5), &mut out).unwrap();
        assert_eq!(out, [7u8; 32]);
    }

    #[test]
    fn begin_rejects_unmapped_and_double_migration() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        let dst = PhysFrame::Global(frames.alloc(&n0).unwrap());
        assert!(Migration::begin(&n0, &space, 9, PageSize::Base, dst).is_err());

        let old = frames.alloc(&n0).unwrap();
        space
            .map(&n0, 9, Pte::new(PhysFrame::Global(old), false))
            .unwrap();
        let _m = Migration::begin(&n0, &space, 9, PageSize::Base, dst).unwrap();
        assert!(
            Migration::begin(&n0, &space, 9, PageSize::Base, dst).is_err(),
            "second begin bounces off the guard bit"
        );
    }

    #[test]
    fn commit_requires_copy_first() {
        let (rack, space, frames) = setup();
        let n0 = rack.node(0);
        let old = frames.alloc(&n0).unwrap();
        space
            .map(&n0, 2, Pte::new(PhysFrame::Global(old), true))
            .unwrap();
        let dst = PhysFrame::Global(frames.alloc(&n0).unwrap());
        let m = Migration::begin(&n0, &space, 2, PageSize::Base, dst).unwrap();
        assert!(m.commit(&n0, &space, &mut |_, _, _| Ok(())).is_err());
    }

    fn setup_region() -> (Rack, AddressSpace, FrameAllocator) {
        let mut cfg = RackConfig::small_test().with_global_mem(64 << 20);
        cfg.local_mem_bytes = 8 << 20;
        let rack = Rack::new(cfg);
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space =
            AddressSpace::alloc(1, rack.global(), alloc, epochs, RetireList::new()).unwrap();
        let frames = FrameAllocator::new(rack.global().clone());
        (rack, space, frames)
    }

    fn map_region(
        rack: &Rack,
        space: &AddressSpace,
        frames: &FrameAllocator,
        head: u64,
        writable: bool,
    ) {
        let n0 = rack.node(0);
        for vpn in head..head + PAGES_PER_HUGE {
            let f = frames.alloc(&n0).unwrap();
            space
                .map(&n0, vpn, Pte::new(PhysFrame::Global(f), writable))
                .unwrap();
        }
    }

    #[test]
    fn region_migration_commits_one_huge_pte_and_one_ranged_shootdown() {
        let (rack, space, frames) = setup_region();
        let n0 = rack.node(0);
        map_region(&rack, &space, &frames, 512, true);
        for vpn in (512..1024).step_by(61) {
            space
                .write(&n0, VirtAddr::from_vpn(vpn), &[vpn as u8; 64])
                .unwrap();
        }

        let mut pool = LocalFramePool::new();
        let base = pool.alloc(&n0, PageSize::Huge).unwrap();
        assert_eq!(base.0 % PAGE_SIZE, 0);
        let dst = PhysFrame::Local(n0.id(), base);
        let mut m = Migration::begin(&n0, &space, 512, PageSize::Huge, dst).unwrap();
        // Guarded window covers the whole region.
        let mut buf = [0u8; 8];
        assert!(matches!(
            space.read(&n0, VirtAddr::from_vpn(800), &mut buf),
            Err(SimError::WouldBlock)
        ));
        m.copy(&n0, &space).unwrap();
        let mut shots = Vec::new();
        let displaced = m
            .commit(&n0, &space, &mut |asid, vpn, span| {
                shots.push((asid, vpn, span));
                Ok(())
            })
            .unwrap();
        assert_eq!(shots, vec![(1, 512, 512)], "exactly one ranged shootdown");
        assert_eq!(displaced.len(), 512);
        assert_eq!(space.mapped_pages(), 512, "one huge PTE covers the region");

        let head = space
            .translate(&n0, VirtAddr::from_vpn(512))
            .unwrap()
            .unwrap();
        assert_eq!(head.frame, dst);
        assert_eq!(head.page_size, PageSize::Huge);
        for vpn in (512..1024).step_by(61) {
            let mut out = [0u8; 64];
            space.read(&n0, VirtAddr::from_vpn(vpn), &mut out).unwrap();
            assert_eq!(out, [vpn as u8; 64], "bytes travelled with the region");
        }
    }

    #[test]
    fn region_migration_abort_restores_all_base_pages() {
        let (rack, space, frames) = setup_region();
        let (n0, n1) = (rack.node(0), rack.node(1));
        map_region(&rack, &space, &frames, 0, true);
        space
            .write(&n0, VirtAddr::from_vpn(77), &[9u8; 32])
            .unwrap();

        let mut pool = LocalFramePool::new();
        let dst = PhysFrame::Local(n0.id(), pool.alloc(&n0, PageSize::Huge).unwrap());
        let m = Migration::begin(&n0, &space, 0, PageSize::Huge, dst).unwrap();
        // The migrating node "crashes"; a survivor aborts from node 1.
        m.abort(&n1, &space).unwrap();
        for vpn in (0..512).step_by(101) {
            let pte = space
                .translate(&n1, VirtAddr::from_vpn(vpn))
                .unwrap()
                .unwrap();
            assert!(!pte.migrating);
            assert_eq!(pte.page_size, PageSize::Base);
        }
        let mut out = [0u8; 32];
        space.read(&n1, VirtAddr::from_vpn(77), &mut out).unwrap();
        assert_eq!(out, [9u8; 32]);
    }

    #[test]
    fn region_begin_rejects_partial_or_mixed_regions() {
        let (rack, space, frames) = setup_region();
        let n0 = rack.node(0);
        let dst = PhysFrame::Global(frames.alloc(&n0).unwrap());
        // Unmapped region.
        assert!(Migration::begin(&n0, &space, 0, PageSize::Huge, dst).is_err());
        // Hole at vpn 100.
        map_region(&rack, &space, &frames, 0, true);
        space.unmap(&n0, 100).unwrap();
        assert!(Migration::begin(&n0, &space, 0, PageSize::Huge, dst).is_err());
        // Mixed permissions.
        let f = frames.alloc(&n0).unwrap();
        space
            .map(&n0, 100, Pte::new(PhysFrame::Global(f), false))
            .unwrap();
        assert!(Migration::begin(&n0, &space, 0, PageSize::Huge, dst).is_err());
        // The failed begins left no page guarded.
        for vpn in (0..512).step_by(37) {
            let pte = space
                .translate(&n0, VirtAddr::from_vpn(vpn))
                .unwrap()
                .unwrap();
            assert!(!pte.migrating, "vpn {vpn} must not be stuck migrating");
        }
    }

    #[test]
    fn split_region_restores_bytes_and_permissions_without_copy() {
        let (rack, space, frames) = setup_region();
        let n0 = rack.node(0);
        // Build a huge local mapping via a region migration.
        map_region(&rack, &space, &frames, 512, true);
        for vpn in (512..1024).step_by(53) {
            space
                .write(&n0, VirtAddr::from_vpn(vpn), &[vpn as u8; 48])
                .unwrap();
        }
        let mut pool = LocalFramePool::new();
        let base = pool.alloc(&n0, PageSize::Huge).unwrap();
        let dst = PhysFrame::Local(n0.id(), base);
        let mut m = Migration::begin(&n0, &space, 512, PageSize::Huge, dst).unwrap();
        m.copy(&n0, &space).unwrap();
        m.commit(&n0, &space, &mut |_, _, _| Ok(())).unwrap();

        let mut shots = Vec::new();
        let head = split_region(&n0, &space, 512, &mut |asid, vpn, span| {
            shots.push((asid, vpn, span));
            Ok(())
        })
        .unwrap();
        assert_eq!(shots, vec![(1, 512, 512)], "split is one ranged shootdown");
        assert_eq!(head.frame, dst);
        assert_eq!(space.mapped_pages(), 512, "512 base PTEs again");
        for vpn in (512..1024).step_by(53) {
            let pte = space
                .translate(&n0, VirtAddr::from_vpn(vpn))
                .unwrap()
                .unwrap();
            assert_eq!(pte.page_size, PageSize::Base);
            assert!(pte.writable, "permission bit preserved");
            assert_eq!(
                pte.frame,
                PhysFrame::Local(n0.id(), LAddr(base.0 + (vpn - 512) as usize * PAGE_SIZE))
            );
            let mut out = [0u8; 48];
            space.read(&n0, VirtAddr::from_vpn(vpn), &mut out).unwrap();
            assert_eq!(out, [vpn as u8; 48], "no copy, same bytes");
        }
        // Split of a non-huge mapping is rejected.
        assert!(split_region(&n0, &space, 512, &mut |_, _, _| Ok(())).is_err());
    }

    #[test]
    fn local_frame_pool_recycles_aligned_frames() {
        let (rack, _, _) = setup_region();
        let n0 = rack.node(0);
        let mut pool = LocalFramePool::new();
        for size in [PageSize::Base, PageSize::Huge] {
            let f = pool.alloc(&n0, size).unwrap();
            assert_eq!(f.0 % PAGE_SIZE, 0);
            pool.free(f, size);
            assert_eq!(pool.free_frames(size), 1);
            assert_eq!(pool.alloc(&n0, size).unwrap(), f);
            assert_eq!(pool.free_frames(size), 0);
        }
        // Each size recycles only its own spans.
        let page = pool.alloc(&n0, PageSize::Base).unwrap();
        pool.free(page, PageSize::Base);
        assert_eq!(pool.free_frames(PageSize::Huge), 0);
        assert_ne!(pool.alloc(&n0, PageSize::Huge).unwrap(), page);
    }

    #[test]
    fn page_migration_rejects_a_vpn_inside_a_huge_mapping() {
        let (rack, space, frames) = setup_region();
        let n0 = rack.node(0);
        let region = rack.global().alloc(HUGE_PAGE_SIZE, PAGE_SIZE).unwrap();
        let huge = Pte::new(PhysFrame::Global(region), true).huge();
        space.map(&n0, 512, huge).unwrap();
        let dst = PhysFrame::Global(frames.alloc(&n0).unwrap());
        for vpn in [512, 700] {
            assert!(
                matches!(
                    Migration::begin(&n0, &space, vpn, PageSize::Base, dst),
                    Err(SimError::Protocol(_))
                ),
                "vpn {vpn}"
            );
        }
        // The huge mapping is untouched: one unguarded head entry that
        // still covers the whole region.
        assert_eq!(space.mapped_pages(), 512);
        for vpn in [512, 700, 1023] {
            let pte = space
                .translate(&n0, VirtAddr::from_vpn(vpn))
                .unwrap()
                .unwrap();
            assert_eq!(pte.page_size, PageSize::Huge);
            assert!(!pte.migrating);
            assert_eq!(
                pte.frame,
                frame_at(huge.frame, (vpn - 512) * PAGE_SIZE as u64)
            );
        }
    }
}
