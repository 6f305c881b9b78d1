//! The shared heterogeneous page table.
//!
//! Paper §3.3: *"The page tables are stored in global memory, enabling
//! the address spaces sharing and multi-threading support across the
//! entire rack. Moreover, FlacOS page tables are capable of indexing both
//! local and global memory and unifies them into a single level address
//! space."*
//!
//! The table is a [`flacdk::ds::radix::RadixTree`] (RCU copy-on-write) in
//! global memory mapping virtual page number → encoded [`Pte`]. Any node
//! can walk it; updates are lock-free and incoherence-safe by
//! construction (readers only ever see immutable published nodes).

use crate::addr::{PageSize, PhysFrame, PAGE_SIZE};
use flacdk::alloc::GlobalAllocator;
use flacdk::ds::radix::RadixTree;
use flacdk::sync::rcu::{EpochManager, RcuReadGuard};
use flacdk::sync::reclaim::RetireList;
use rack_sim::{GAddr, GlobalMemory, LAddr, NodeCtx, NodeId, SimError};
use std::sync::Arc;

/// A decoded page-table entry: frame location plus permissions and the
/// migration guard bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical frame.
    pub frame: PhysFrame,
    /// Whether the mapping permits writes.
    pub writable: bool,
    /// Set while the tiering daemon copies this page between tiers. The
    /// old frame stays authoritative; accessors must retry (never read
    /// the in-flight copy, which may be torn under incoherent caches).
    /// An access touching a migrating page is rejected all or nothing:
    /// [`crate::AddressSpace::read`] and [`crate::AddressSpace::write`]
    /// move no byte of any of its pages.
    pub migrating: bool,
    /// Translation granularity. A [`PageSize::Huge`] entry lives at a
    /// 512-aligned region-head vpn and maps the whole 2 MiB region with
    /// one PTE; [`crate::AddressSpace::translate`] synthesizes per-vpn
    /// 4 KiB views from it.
    pub page_size: PageSize,
}

const TIER_LOCAL: u64 = 1 << 0;
const WRITABLE: u64 = 1 << 1;
const NODE_SHIFT: u64 = 2;
const NODE_MASK: u64 = 0x1ff << NODE_SHIFT; // 512 nodes
const MIGRATING: u64 = 1 << 11;
// Bits 12.. hold the frame address, so the huge flag takes the top bit
// (frame addresses in the simulator never approach 2^63).
const HUGE: u64 = 1 << 63;

impl Pte {
    /// A plain (non-migrating) 4 KiB entry for `frame`.
    pub fn new(frame: PhysFrame, writable: bool) -> Pte {
        Pte {
            frame,
            writable,
            migrating: false,
            page_size: PageSize::Base,
        }
    }

    /// This entry as a 2 MiB huge mapping (store it at the 512-aligned
    /// region-head vpn; `frame` is the base of a contiguous 2 MiB span).
    #[must_use]
    pub fn huge(self) -> Pte {
        Pte {
            page_size: PageSize::Huge,
            ..self
        }
    }

    /// This entry with the migration guard bit set (old frame stays
    /// authoritative while the daemon copies).
    pub fn begin_migration(self) -> Pte {
        Pte {
            migrating: true,
            ..self
        }
    }

    /// This entry with the migration guard bit cleared.
    pub fn end_migration(self) -> Pte {
        Pte {
            migrating: false,
            ..self
        }
    }

    /// Encode to the radix tree's u64 value. Frame addresses must be
    /// page-aligned so the low 12 bits are free for flags.
    ///
    /// # Panics
    ///
    /// Panics on a non-page-aligned frame address.
    pub fn encode(self) -> u64 {
        let mut bits = match self.frame {
            PhysFrame::Global(GAddr(a)) => {
                assert_eq!(a % PAGE_SIZE as u64, 0, "frame must be page-aligned");
                a
            }
            PhysFrame::Local(node, LAddr(a)) => {
                assert_eq!(a % PAGE_SIZE, 0, "frame must be page-aligned");
                assert!(node.0 < 512, "node id exceeds PTE encoding");
                a as u64 | TIER_LOCAL | ((node.0 as u64) << NODE_SHIFT)
            }
        };
        if self.writable {
            bits |= WRITABLE;
        }
        if self.migrating {
            bits |= MIGRATING;
        }
        if self.page_size == PageSize::Huge {
            bits |= HUGE;
        }
        bits
    }

    /// Decode from the radix tree's u64 value.
    pub fn decode(bits: u64) -> Pte {
        let writable = bits & WRITABLE != 0;
        let migrating = bits & MIGRATING != 0;
        let page_size = if bits & HUGE != 0 {
            PageSize::Huge
        } else {
            PageSize::Base
        };
        let addr = bits & !(PAGE_SIZE as u64 - 1) & !HUGE;
        let frame = if bits & TIER_LOCAL != 0 {
            let node = NodeId(((bits & NODE_MASK) >> NODE_SHIFT) as usize);
            PhysFrame::Local(node, LAddr(addr as usize))
        } else {
            PhysFrame::Global(GAddr(addr))
        };
        Pte {
            frame,
            writable,
            migrating,
            page_size,
        }
    }
}

/// Shared-memory page table for one address space.
#[derive(Debug, Clone)]
pub struct PageTable {
    tree: RadixTree,
    alloc: GlobalAllocator,
    epochs: Arc<EpochManager>,
    retired: RetireList,
}

impl PageTable {
    /// Allocate an empty page table (4 radix levels → 16M pages → 64 GiB
    /// of virtual address space).
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc(
        global: &GlobalMemory,
        alloc: GlobalAllocator,
        epochs: Arc<EpochManager>,
        retired: RetireList,
    ) -> Result<Self, SimError> {
        Ok(PageTable {
            tree: RadixTree::alloc(global, 4)?,
            alloc,
            epochs,
            retired,
        })
    }

    /// Map virtual page `vpn` to `pte`, returning any previous mapping.
    ///
    /// # Errors
    ///
    /// Propagates radix/allocation errors.
    pub fn map(&self, ctx: &NodeCtx, vpn: u64, pte: Pte) -> Result<Option<Pte>, SimError> {
        Ok(self
            .tree
            .insert(
                ctx,
                &self.alloc,
                &self.epochs,
                &self.retired,
                vpn,
                pte.encode(),
            )?
            .map(Pte::decode))
    }

    /// Remove the mapping for `vpn`, returning it if present.
    ///
    /// # Errors
    ///
    /// Propagates radix/allocation errors.
    pub fn unmap(&self, ctx: &NodeCtx, vpn: u64) -> Result<Option<Pte>, SimError> {
        Ok(self
            .tree
            .remove(ctx, &self.alloc, &self.epochs, &self.retired, vpn)?
            .map(Pte::decode))
    }

    /// Walk the table for `vpn` under an RCU read guard (the software
    /// analogue of an MMU walk; per-node caching of walks lives in
    /// [`crate::tlb::Tlb`]).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn walk(
        &self,
        ctx: &NodeCtx,
        guard: &RcuReadGuard,
        vpn: u64,
    ) -> Result<Option<Pte>, SimError> {
        Ok(self.tree.get(ctx, guard, vpn)?.map(Pte::decode))
    }

    /// Reclaim page-table nodes displaced by prior updates.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn reclaim(&self, ctx: &NodeCtx) -> Result<usize, SimError> {
        self.retired.reclaim(ctx, &self.epochs, &self.alloc)
    }

    /// The epoch manager guarding this table's readers.
    pub fn epochs(&self) -> &Arc<EpochManager> {
        &self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, PageTable) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let pt = PageTable::alloc(rack.global(), alloc, epochs, RetireList::new()).unwrap();
        (rack, pt)
    }

    #[test]
    fn pte_roundtrip_global_and_local() {
        let cases = [
            Pte::new(PhysFrame::Global(GAddr(0x3000)), true),
            Pte::new(PhysFrame::Global(GAddr(0)), false),
            Pte::new(PhysFrame::Local(NodeId(3), LAddr(0x7000)), true),
            Pte::new(PhysFrame::Local(NodeId(511), LAddr(0x1000)), false),
        ];
        for pte in cases {
            assert_eq!(Pte::decode(pte.encode()), pte);
            // The migration guard bit survives the same roundtrip for
            // every frame/permission combination.
            let mid_flight = pte.begin_migration();
            assert!(mid_flight.migrating);
            assert_eq!(Pte::decode(mid_flight.encode()), mid_flight);
            assert_eq!(mid_flight.end_migration(), pte);
        }
    }

    #[test]
    fn huge_pte_roundtrip_preserves_size_and_flags() {
        let cases = [
            Pte::new(PhysFrame::Global(GAddr(0x20_0000)), true).huge(),
            Pte::new(PhysFrame::Global(GAddr(0x3000)), false).huge(),
            Pte::new(PhysFrame::Local(NodeId(5), LAddr(0x40_0000)), true).huge(),
        ];
        for pte in cases {
            assert_eq!(pte.page_size, PageSize::Huge);
            assert_eq!(Pte::decode(pte.encode()), pte);
            let mid_flight = pte.begin_migration();
            let back = Pte::decode(mid_flight.encode());
            assert_eq!(back, mid_flight);
            assert_eq!(back.page_size, PageSize::Huge);
            assert_eq!(back.end_migration(), pte);
        }
        // The huge flag never leaks into the decoded frame address.
        let base = Pte::new(PhysFrame::Global(GAddr(0x5000)), true);
        assert_eq!(base.encode() | (1 << 63), base.huge().encode());
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn misaligned_frame_panics() {
        Pte::new(PhysFrame::Global(GAddr(0x3001)), false).encode();
    }

    #[test]
    fn map_walk_unmap_visible_rack_wide() {
        let (rack, pt) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let pte = Pte::new(PhysFrame::Global(GAddr(0x5000)), true);
        assert_eq!(pt.map(&n0, 7, pte).unwrap(), None);

        // Node 1 walks the same table without any explicit flushing.
        let h1 = pt.epochs().handle(n1.clone());
        let g = h1.read_lock().unwrap();
        assert_eq!(pt.walk(&n1, &g, 7).unwrap(), Some(pte));
        assert_eq!(pt.walk(&n1, &g, 8).unwrap(), None);
        drop(g);

        assert_eq!(pt.unmap(&n1, 7).unwrap(), Some(pte));
        let g = pt.epochs().handle(n0.clone()).read_lock().unwrap();
        assert_eq!(pt.walk(&n0, &g, 7).unwrap(), None);
    }

    #[test]
    fn remap_returns_previous() {
        let (rack, pt) = setup();
        let n0 = rack.node(0);
        let a = Pte::new(PhysFrame::Global(GAddr(0x1000)), false);
        let b = Pte::new(PhysFrame::Local(NodeId(1), LAddr(0x2000)), true);
        pt.map(&n0, 1, a).unwrap();
        assert_eq!(pt.map(&n0, 1, b).unwrap(), Some(a));
        pt.reclaim(&n0).unwrap();
        let g = pt.epochs().handle(n0.clone()).read_lock().unwrap();
        assert_eq!(pt.walk(&n0, &g, 1).unwrap(), Some(b));
    }

    #[test]
    fn many_mappings_with_reclaim() {
        let (rack, pt) = setup();
        let n0 = rack.node(0);
        for vpn in 0..300u64 {
            let pte = Pte::new(
                PhysFrame::Global(GAddr(vpn * PAGE_SIZE as u64)),
                vpn % 2 == 0,
            );
            pt.map(&n0, vpn, pte).unwrap();
            pt.reclaim(&n0).unwrap();
        }
        let g = pt.epochs().handle(n0.clone()).read_lock().unwrap();
        for vpn in (0..300u64).step_by(37) {
            let pte = pt.walk(&n0, &g, vpn).unwrap().unwrap();
            assert_eq!(pte.frame, PhysFrame::Global(GAddr(vpn * PAGE_SIZE as u64)));
            assert_eq!(pte.writable, vpn % 2 == 0);
        }
    }
}
