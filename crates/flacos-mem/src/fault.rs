//! Demand paging: frame allocation and page-fault handling.
//!
//! Paper §3.3: *"page fault handling in FlacOS must be capable of
//! allocating and loading pages into global memory"* — and, because the
//! page table is heterogeneous, into node-local memory too. The handler
//! implements demand-zero allocation with a placement policy, minor
//! faults (mapping already present), write-protection faults resolved by
//! copy-on-write, and fault accounting.

use crate::addr::{PhysFrame, PAGE_SIZE};
use crate::address_space::AddressSpace;
use crate::page_table::Pte;
use rack_sim::{GAddr, GlobalMemory, LAddr, NodeCtx, SimError};
use std::sync::Arc;

/// Page-aligned frame allocator over global memory, with a free list so
/// unmapped frames are recycled.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    global: Arc<GlobalMemory>,
    #[expect(
        clippy::disallowed_types,
        reason = "recycle list of frame addresses; the frames are global but alloc/free \
                  charge the fabric for them, and losing the list only leaks frames"
    )]
    free: Arc<rack_sim::sync::Mutex<Vec<GAddr>>>,
}

impl FrameAllocator {
    /// A frame allocator over `global`.
    pub fn new(global: Arc<GlobalMemory>) -> Self {
        FrameAllocator {
            global,
            free: Arc::default(),
        }
    }

    /// Allocate one page-aligned global frame.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfMemory`] when the pool is exhausted.
    pub fn alloc(&self, ctx: &NodeCtx) -> Result<GAddr, SimError> {
        ctx.charge(ctx.latency().global_atomic_ns);
        if let Some(f) = self.free.lock().pop() {
            return Ok(f);
        }
        self.global.alloc(PAGE_SIZE, PAGE_SIZE)
    }

    /// Return a frame for reuse.
    pub fn free(&self, ctx: &NodeCtx, frame: GAddr) {
        ctx.charge(ctx.latency().global_atomic_ns);
        self.free.lock().push(frame);
    }

    /// Frames currently on the free list.
    pub fn free_frames(&self) -> usize {
        self.free.lock().len()
    }
}

/// Where the handler places newly faulted-in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePlacement {
    /// Always allocate in the rack-shared global pool (shareable pages).
    Global,
    /// Allocate in the faulting node's local memory (private, fastest).
    Local,
}

/// How a fault was resolved, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultResolution {
    /// Mapping already present with sufficient permissions.
    Minor,
    /// A fresh zero frame was allocated and mapped.
    MajorZeroFill,
    /// Write to a read-only mapping resolved by copy-on-write.
    CopyOnWrite,
    /// The page is mid-migration between tiers: the caller must retry
    /// after the daemon commits or aborts (the old frame stays
    /// authoritative, so no torn read is possible either way).
    Retry,
}

/// Fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Minor faults (spurious / permission-satisfied).
    pub minor: u64,
    /// Zero-fill major faults.
    pub major: u64,
    /// Copy-on-write resolutions.
    pub cow: u64,
    /// Faults bounced off an in-flight tier migration.
    pub retries: u64,
}

/// The page-fault handler for one node (placement decisions are
/// per-handler; the page table itself is shared).
#[derive(Debug)]
pub struct PageFaultHandler {
    frames: FrameAllocator,
    placement: PagePlacement,
    #[expect(
        clippy::disallowed_types,
        reason = "per-node handler counters: the handler is a node-local object; \
                  the page table it faults into is shared"
    )]
    stats: rack_sim::sync::Mutex<FaultStats>,
}

impl PageFaultHandler {
    /// A handler drawing global frames from `frames` and placing new
    /// pages per `placement`.
    pub fn new(frames: FrameAllocator, placement: PagePlacement) -> Self {
        PageFaultHandler {
            frames,
            placement,
            stats: Default::default(),
        }
    }

    /// Allocate a page-aligned frame in `ctx`'s local memory.
    fn alloc_local_frame(ctx: &NodeCtx) -> Result<LAddr, SimError> {
        // The local bump allocator aligns to 8; over-allocate and round up.
        let raw = ctx.local_alloc(PAGE_SIZE * 2)?;
        Ok(LAddr((raw.0 + PAGE_SIZE - 1) & !(PAGE_SIZE - 1)))
    }

    /// Handle a fault at virtual page `vpn` of `space`, for a read
    /// (`write == false`) or write access.
    ///
    /// # Errors
    ///
    /// Out-of-memory and fabric errors are propagated.
    pub fn handle(
        &self,
        ctx: &Arc<NodeCtx>,
        space: &AddressSpace,
        vpn: u64,
        write: bool,
    ) -> Result<FaultResolution, SimError> {
        let existing = space.translate(ctx, crate::addr::VirtAddr::from_vpn(vpn))?;
        match existing {
            Some(pte) if pte.migrating => {
                self.stats.lock().retries += 1;
                Ok(FaultResolution::Retry)
            }
            Some(pte) if pte.writable || !write => {
                self.stats.lock().minor += 1;
                Ok(FaultResolution::Minor)
            }
            Some(pte) => {
                // Write to a read-only page: copy-on-write into a frame
                // this handler's policy chooses.
                let new_frame = self.place_frame(ctx)?;
                let mut content = vec![0u8; PAGE_SIZE];
                space.read_frame(ctx, pte.frame, &mut content)?;
                space.write_frame(ctx, new_frame, &content)?;
                space.map(ctx, vpn, Pte::new(new_frame, true))?;
                self.stats.lock().cow += 1;
                Ok(FaultResolution::CopyOnWrite)
            }
            None => {
                // Demand-zero fill.
                let frame = self.place_frame(ctx)?;
                space.write_frame(ctx, frame, &[0u8; PAGE_SIZE])?;
                space.map(ctx, vpn, Pte::new(frame, true))?;
                self.stats.lock().major += 1;
                Ok(FaultResolution::MajorZeroFill)
            }
        }
    }

    fn place_frame(&self, ctx: &NodeCtx) -> Result<PhysFrame, SimError> {
        Ok(match self.placement {
            PagePlacement::Global => PhysFrame::Global(self.frames.alloc(ctx)?),
            PagePlacement::Local => PhysFrame::Local(ctx.id(), Self::alloc_local_frame(ctx)?),
        })
    }

    /// Fault counters so far.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock()
    }

    /// The global frame allocator.
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_space::AddressSpace;
    use flacdk::alloc::GlobalAllocator;
    use flacdk::sync::rcu::EpochManager;
    use flacdk::sync::reclaim::RetireList;
    use rack_sim::{Rack, RackConfig};

    fn setup(placement: PagePlacement) -> (Rack, AddressSpace, PageFaultHandler) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space =
            AddressSpace::alloc(1, rack.global(), alloc, epochs, RetireList::new()).unwrap();
        let handler = PageFaultHandler::new(FrameAllocator::new(rack.global().clone()), placement);
        (rack, space, handler)
    }

    #[test]
    fn zero_fill_then_minor() {
        let (rack, space, handler) = setup(PagePlacement::Global);
        let n0 = rack.node(0);
        assert_eq!(
            handler.handle(&n0, &space, 5, true).unwrap(),
            FaultResolution::MajorZeroFill
        );
        assert_eq!(
            handler.handle(&n0, &space, 5, false).unwrap(),
            FaultResolution::Minor
        );
        assert_eq!(
            handler.handle(&n0, &space, 5, true).unwrap(),
            FaultResolution::Minor
        );
        let s = handler.stats();
        assert_eq!((s.major, s.minor, s.cow), (1, 2, 0));
    }

    #[test]
    fn fault_on_migrating_page_retries() {
        let (rack, space, handler) = setup(PagePlacement::Global);
        let n0 = rack.node(0);
        handler.handle(&n0, &space, 4, true).unwrap();
        let pte = space
            .translate(&n0, crate::addr::VirtAddr::from_vpn(4))
            .unwrap()
            .unwrap();
        space.table().map(&n0, 4, pte.begin_migration()).unwrap();
        assert_eq!(
            handler.handle(&n0, &space, 4, false).unwrap(),
            FaultResolution::Retry
        );
        assert_eq!(
            handler.handle(&n0, &space, 4, true).unwrap(),
            FaultResolution::Retry
        );
        space.table().map(&n0, 4, pte.end_migration()).unwrap();
        assert_eq!(
            handler.handle(&n0, &space, 4, true).unwrap(),
            FaultResolution::Minor
        );
        assert_eq!(handler.stats().retries, 2);
    }

    #[test]
    fn zero_filled_page_reads_zero_rack_wide() {
        let (rack, space, handler) = setup(PagePlacement::Global);
        let (n0, n1) = (rack.node(0), rack.node(1));
        handler.handle(&n0, &space, 3, false).unwrap();
        let mut buf = [7u8; 64];
        space
            .read(&n1, crate::addr::VirtAddr::from_vpn(3), &mut buf)
            .unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn cow_preserves_content_and_remaps_writable() {
        let (rack, space, handler) = setup(PagePlacement::Global);
        let n0 = rack.node(0);
        // Map a read-only page with known content.
        let frame = PhysFrame::Global(handler.frames().alloc(&n0).unwrap());
        space.write_frame(&n0, frame, &[9u8; PAGE_SIZE]).unwrap();
        space.table().map(&n0, 2, Pte::new(frame, false)).unwrap();

        assert_eq!(
            handler.handle(&n0, &space, 2, true).unwrap(),
            FaultResolution::CopyOnWrite
        );
        let pte = space
            .translate(&n0, crate::addr::VirtAddr::from_vpn(2))
            .unwrap()
            .unwrap();
        assert!(pte.writable);
        assert_ne!(pte.frame, frame, "fresh frame");
        let mut buf = [0u8; 16];
        space
            .read(&n0, crate::addr::VirtAddr::from_vpn(2), &mut buf)
            .unwrap();
        assert_eq!(buf, [9u8; 16]);
    }

    #[test]
    fn local_placement_produces_local_frames() {
        let (rack, space, handler) = setup(PagePlacement::Local);
        let n0 = rack.node(0);
        handler.handle(&n0, &space, 1, true).unwrap();
        let pte = space
            .translate(&n0, crate::addr::VirtAddr::from_vpn(1))
            .unwrap()
            .unwrap();
        assert_eq!(pte.frame.home_node(), Some(n0.id()));
    }

    #[test]
    fn frame_allocator_recycles() {
        let rack = Rack::new(RackConfig::small_test());
        let fa = FrameAllocator::new(rack.global().clone());
        let n0 = rack.node(0);
        let f = fa.alloc(&n0).unwrap();
        assert!(f.is_aligned(PAGE_SIZE as u64));
        fa.free(&n0, f);
        assert_eq!(fa.free_frames(), 1);
        assert_eq!(fa.alloc(&n0).unwrap(), f);
    }
}
