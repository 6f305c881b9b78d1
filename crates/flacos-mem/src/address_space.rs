//! A rack-shared address space over the heterogeneous page table.
//!
//! An [`AddressSpace`] couples an ASID with a [`PageTable`] stored in
//! global memory, and provides byte-granular `read`/`write` that
//! translate through the table — the software model of what the adapted
//! MMUs of §3.3 do in hardware. Frames may live in the global pool
//! (accessible from every node) or in one node's local memory (directly
//! accessible only there; remote access is a protocol error surfaced to
//! the caller, which is exactly the property fault boxes exploit to keep
//! an application's state vertically consolidated).

use crate::addr::{huge_base, PageSize, PhysFrame, VirtAddr, PAGE_SIZE};
use crate::page_table::{PageTable, Pte};
use crate::telemetry::AccessRing;
use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::{EpochManager, RcuReadGuard};
use flacdk::sync::reclaim::RetireList;
use rack_sim::{GlobalMemory, NodeCtx, SimError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared address space: ASID + page table + accounting.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    asid: u64,
    table: PageTable,
    mapped_pages: Arc<AtomicU64>,
    #[expect(
        clippy::disallowed_types,
        reason = "registration slot for the local telemetry ring; the shared state \
                  (the page table) is global-memory resident"
    )]
    sampler: Arc<rack_sim::sync::Mutex<Option<Arc<AccessRing>>>>,
}

impl AddressSpace {
    /// Allocate an empty address space with identifier `asid`.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc(
        asid: u64,
        global: &GlobalMemory,
        alloc: GlobalAllocator,
        epochs: Arc<EpochManager>,
        retired: RetireList,
    ) -> Result<Self, SimError> {
        Ok(AddressSpace {
            asid,
            table: PageTable::alloc(global, alloc, epochs, retired)?,
            mapped_pages: Arc::new(AtomicU64::new(0)),
            sampler: Arc::default(),
        })
    }

    /// Attach a telemetry ring: every successful translation through this
    /// space (from any clone) is offered to the ring's sampler, feeding
    /// the tiering daemon's hotness view. Pass `None` to detach.
    pub fn attach_sampler(&self, ring: Option<Arc<AccessRing>>) {
        *self.sampler.lock() = ring;
    }

    /// This space's ASID.
    pub fn asid(&self) -> u64 {
        self.asid
    }

    /// The shared page table.
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// Number of currently mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages.load(Ordering::Relaxed)
    }

    /// Map `vpn` to `pte`, maintaining the mapped-page count. Huge
    /// entries must sit at a 512-aligned region-head vpn and account for
    /// all 512 base pages they cover.
    ///
    /// # Errors
    ///
    /// Propagates page-table errors.
    ///
    /// # Panics
    ///
    /// Panics when a huge `pte` is mapped at a non-region-head vpn.
    pub fn map(&self, ctx: &Arc<NodeCtx>, vpn: u64, pte: Pte) -> Result<Option<Pte>, SimError> {
        if pte.page_size == PageSize::Huge {
            assert_eq!(vpn, huge_base(vpn), "huge PTE must map a region head");
        }
        let prev = self.table.map(ctx, vpn, pte)?;
        let before = prev.map_or(0, |p| p.page_size.pages());
        let after = pte.page_size.pages();
        if after > before {
            self.mapped_pages
                .fetch_add(after - before, Ordering::Relaxed);
        } else if before > after {
            self.mapped_pages
                .fetch_sub(before - after, Ordering::Relaxed);
        }
        Ok(prev)
    }

    /// Unmap `vpn`, maintaining the mapped-page count (a huge entry
    /// releases all 512 base pages it covered).
    ///
    /// # Errors
    ///
    /// Propagates page-table errors.
    pub fn unmap(&self, ctx: &Arc<NodeCtx>, vpn: u64) -> Result<Option<Pte>, SimError> {
        let prev = self.table.unmap(ctx, vpn)?;
        if let Some(p) = prev {
            self.mapped_pages
                .fetch_sub(p.page_size.pages(), Ordering::Relaxed);
        }
        Ok(prev)
    }

    /// Translate a virtual address to its frame and mapping, if mapped.
    ///
    /// Base pages resolve directly. If the vpn itself is unmapped, the
    /// walk retries at the 2 MiB region head: a huge PTE there covers
    /// this vpn, and the returned entry is a synthesized per-vpn 4 KiB
    /// view of it (frame advanced by the vpn's offset into the region,
    /// permissions and the migration guard inherited) so byte-granular
    /// readers and the TLB stay page-granular.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn translate(&self, ctx: &Arc<NodeCtx>, va: VirtAddr) -> Result<Option<Pte>, SimError> {
        let guard = self.table.epochs().handle(ctx.clone()).read_lock()?;
        self.translate_in(ctx, &guard, va.vpn())
    }

    /// [`Self::translate`] for `vpn` under a read guard the caller holds,
    /// so one guard can cover every page of an access.
    fn translate_in(
        &self,
        ctx: &NodeCtx,
        guard: &RcuReadGuard,
        vpn: u64,
    ) -> Result<Option<Pte>, SimError> {
        let mut pte = self.table.walk(ctx, guard, vpn)?;
        if pte.is_none() && huge_base(vpn) != vpn {
            pte = self
                .table
                .walk(ctx, guard, huge_base(vpn))?
                .filter(|head| head.page_size == PageSize::Huge)
                .map(|head| Self::huge_view(head, vpn - huge_base(vpn)));
        }
        if pte.is_some() {
            if let Some(ring) = self.sampler.lock().as_ref() {
                ring.record(ctx.id(), self.asid, vpn);
            }
        }
        Ok(pte)
    }

    /// The per-vpn 4 KiB view of huge PTE `head`, `offset` base pages
    /// into its region.
    fn huge_view(head: Pte, offset: u64) -> Pte {
        let byte_off = offset * PAGE_SIZE as u64;
        let frame = match head.frame {
            PhysFrame::Global(a) => PhysFrame::Global(a.offset(byte_off)),
            PhysFrame::Local(n, a) => PhysFrame::Local(n, rack_sim::LAddr(a.0 + byte_off as usize)),
        };
        Pte { frame, ..head }
    }

    /// Read bytes from a frame at a page offset (coherently: global
    /// frames are invalidated before the read).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when reading another node's local frame.
    pub fn read_frame(
        &self,
        ctx: &NodeCtx,
        frame: PhysFrame,
        buf: &mut [u8],
    ) -> Result<(), SimError> {
        match frame {
            PhysFrame::Global(addr) => {
                ctx.invalidate(addr, buf.len());
                ctx.read(addr, buf)
            }
            PhysFrame::Local(node, addr) => {
                if node != ctx.id() {
                    return Err(SimError::Protocol(format!(
                        "node {} cannot directly read {node}'s local frame",
                        ctx.id()
                    )));
                }
                ctx.local_read(addr, buf)
            }
        }
    }

    /// Write bytes into a frame (coherently: global frames are written
    /// back so other nodes observe the update).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when writing another node's local frame.
    pub fn write_frame(&self, ctx: &NodeCtx, frame: PhysFrame, buf: &[u8]) -> Result<(), SimError> {
        match frame {
            PhysFrame::Global(addr) => {
                ctx.write(addr, buf)?;
                ctx.writeback(addr, buf.len());
                Ok(())
            }
            PhysFrame::Local(node, addr) => {
                if node != ctx.id() {
                    return Err(SimError::Protocol(format!(
                        "node {} cannot directly write {node}'s local frame",
                        ctx.id()
                    )));
                }
                ctx.local_write(addr, buf)
            }
        }
    }

    /// Resolve every page of `[va, va + len)` for one access: each page
    /// is walked once, all under one RCU read guard, and the whole access
    /// is rejected before any frame I/O if any page is unmapped, read-only
    /// (for a `write`), migrating or another node's local frame. Returns
    /// each page's frame advanced to the access's first byte in it, with
    /// the number of bytes the access takes from that page.
    fn resolve(
        &self,
        ctx: &Arc<NodeCtx>,
        va: VirtAddr,
        len: usize,
        write: bool,
    ) -> Result<Vec<(PhysFrame, usize)>, SimError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let guard = self.table.epochs().handle(ctx.clone()).read_lock()?;
        let mut pages = Vec::with_capacity((va.page_offset() + len).div_ceil(PAGE_SIZE));
        let mut done = 0usize;
        while done < len {
            let cur = va.offset(done as u64);
            let in_page = cur.page_offset();
            let take = (PAGE_SIZE - in_page).min(len - done);
            let pte = self.translate_in(ctx, &guard, cur.vpn())?.ok_or_else(|| {
                SimError::Protocol(format!("unmapped address {cur} in asid {}", self.asid))
            })?;
            if write && !pte.writable {
                return Err(SimError::Protocol(format!(
                    "write to read-only page at {cur}"
                )));
            }
            if pte.migrating {
                // Mid-migration: the in-flight copy may be torn under the
                // incoherent-cache model, so never touch either frame —
                // the caller retries once the daemon commits or aborts.
                return Err(SimError::WouldBlock);
            }
            let frame = match pte.frame {
                PhysFrame::Global(a) => PhysFrame::Global(a.offset(in_page as u64)),
                PhysFrame::Local(n, a) if n == ctx.id() => {
                    PhysFrame::Local(n, rack_sim::LAddr(a.0 + in_page))
                }
                PhysFrame::Local(n, _) => {
                    return Err(SimError::Protocol(format!(
                        "node {} cannot directly {} {n}'s local frame",
                        ctx.id(),
                        if write { "write" } else { "read" }
                    )))
                }
            };
            pages.push((frame, take));
            done += take;
        }
        Ok(pages)
    }

    /// Read `buf.len()` bytes starting at virtual address `va`.
    ///
    /// Every page is translated once before any byte moves; see
    /// [`Self::write`] for the rejection rules.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on unmapped pages or foreign local frames,
    /// [`SimError::WouldBlock`] on a migrating page.
    pub fn read(&self, ctx: &Arc<NodeCtx>, va: VirtAddr, buf: &mut [u8]) -> Result<(), SimError> {
        let mut done = 0usize;
        for (frame, take) in self.resolve(ctx, va, buf.len(), false)? {
            self.read_frame(ctx, frame, &mut buf[done..done + take])?;
            done += take;
        }
        Ok(())
    }

    /// Write `buf` starting at virtual address `va`, all or nothing: every
    /// page is translated once, and if any page is unmapped, read-only,
    /// migrating or another node's local frame, the write fails before
    /// any byte moves, so no other node ever sees part of a failed write.
    /// (A memory error during the copy itself can still stop it midway.)
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on unmapped or read-only pages, or foreign
    /// local frames; [`SimError::WouldBlock`] on a migrating page.
    pub fn write(&self, ctx: &Arc<NodeCtx>, va: VirtAddr, buf: &[u8]) -> Result<(), SimError> {
        let mut done = 0usize;
        for (frame, take) in self.resolve(ctx, va, buf.len(), true)? {
            self.write_frame(ctx, frame, &buf[done..done + take])?;
            done += take;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{GAddr, Rack, RackConfig};

    fn setup() -> (Rack, AddressSpace) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space =
            AddressSpace::alloc(7, rack.global(), alloc, epochs, RetireList::new()).unwrap();
        (rack, space)
    }

    fn map_global_page(rack: &Rack, space: &AddressSpace, vpn: u64, writable: bool) -> GAddr {
        let frame = rack.global().alloc(PAGE_SIZE, PAGE_SIZE).unwrap();
        space
            .map(
                &rack.node(0),
                vpn,
                Pte::new(PhysFrame::Global(frame), writable),
            )
            .unwrap();
        frame
    }

    #[test]
    fn cross_page_rw_roundtrip() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        map_global_page(&rack, &space, 0, true);
        map_global_page(&rack, &space, 1, true);
        assert_eq!(space.mapped_pages(), 2);

        let data: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let va = VirtAddr(PAGE_SIZE as u64 - 100); // straddles the page boundary
        space.write(&n0, va, &data).unwrap();
        let mut out = vec![0u8; 200];
        space.read(&n0, va, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn other_node_sees_writes_through_shared_space() {
        let (rack, space) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        map_global_page(&rack, &space, 4, true);
        space
            .write(&n0, VirtAddr::from_vpn(4), b"shared-address-space")
            .unwrap();
        let mut out = vec![0u8; 20];
        space.read(&n1, VirtAddr::from_vpn(4), &mut out).unwrap();
        assert_eq!(&out, b"shared-address-space");
    }

    #[test]
    fn unmapped_access_is_protocol_error() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        let mut buf = [0u8; 4];
        assert!(space.read(&n0, VirtAddr(0), &mut buf).is_err());
        assert!(space.write(&n0, VirtAddr(0), &buf).is_err());
    }

    #[test]
    fn read_only_page_rejects_writes() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        map_global_page(&rack, &space, 2, false);
        let mut buf = [0u8; 4];
        assert!(space.read(&n0, VirtAddr::from_vpn(2), &mut buf).is_ok());
        assert!(space.write(&n0, VirtAddr::from_vpn(2), &buf).is_err());
    }

    #[test]
    fn foreign_local_frame_rejected() {
        let (rack, space) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let local = rack_sim::LAddr(0);
        space
            .map(&n0, 3, Pte::new(PhysFrame::Local(n0.id(), local), true))
            .unwrap();
        let mut buf = [0u8; 4];
        assert!(space.read(&n1, VirtAddr::from_vpn(3), &mut buf).is_err());
    }

    #[test]
    fn unmap_accounts() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        map_global_page(&rack, &space, 9, true);
        assert_eq!(space.mapped_pages(), 1);
        assert!(space.unmap(&n0, 9).unwrap().is_some());
        assert_eq!(space.mapped_pages(), 0);
        assert!(space.unmap(&n0, 9).unwrap().is_none());
        assert_eq!(space.mapped_pages(), 0);
    }

    #[test]
    fn migrating_page_blocks_reads_and_writes() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        map_global_page(&rack, &space, 6, true);
        let pte = space
            .translate(&n0, VirtAddr::from_vpn(6))
            .unwrap()
            .unwrap();
        space.map(&n0, 6, pte.begin_migration()).unwrap();
        let mut buf = [0u8; 8];
        assert!(matches!(
            space.read(&n0, VirtAddr::from_vpn(6), &mut buf),
            Err(SimError::WouldBlock)
        ));
        assert!(matches!(
            space.write(&n0, VirtAddr::from_vpn(6), &buf),
            Err(SimError::WouldBlock)
        ));
        space.map(&n0, 6, pte.end_migration()).unwrap();
        assert!(space.read(&n0, VirtAddr::from_vpn(6), &mut buf).is_ok());
        assert!(space.write(&n0, VirtAddr::from_vpn(6), &buf).is_ok());
    }

    #[test]
    fn failed_straddling_write_leaves_memory_untouched() {
        // A 16-byte write over mapped page 0 and a page 1 that is (a)
        // unmapped or (b) migrating must fail without writing page 0's
        // tail, so no other node ever sees part of a failed write.
        let (rack, space) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        map_global_page(&rack, &space, 0, true);
        let va = VirtAddr(PAGE_SIZE as u64 - 8);
        let tail = |space: &AddressSpace| {
            let mut out = [0xffu8; 8];
            space.read(&n1, va, &mut out).unwrap();
            out
        };

        let unmapped = space.write(&n0, va, &[7u8; 16]);
        assert!(
            matches!(unmapped, Err(SimError::Protocol(_))),
            "{unmapped:?}"
        );
        assert_eq!(tail(&space), [0; 8], "unmapped page 1: page 0 untouched");

        map_global_page(&rack, &space, 1, true);
        let pte = space
            .translate(&n0, VirtAddr::from_vpn(1))
            .unwrap()
            .unwrap();
        space.map(&n0, 1, pte.begin_migration()).unwrap();
        assert!(matches!(
            space.write(&n0, va, &[9u8; 16]),
            Err(SimError::WouldBlock)
        ));
        assert_eq!(tail(&space), [0; 8], "migrating page 1: page 0 untouched");

        space.map(&n0, 1, pte).unwrap();
        space.write(&n0, va, &[5u8; 16]).unwrap();
        assert_eq!(tail(&space), [5; 8]);
    }

    #[test]
    fn attached_sampler_sees_translations() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        map_global_page(&rack, &space, 1, true);
        let ring = AccessRing::new(16, 1);
        space.attach_sampler(Some(ring.clone()));
        let mut buf = [0u8; 4];
        space.read(&n0, VirtAddr::from_vpn(1), &mut buf).unwrap();
        let seen = ring.drain();
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|a| a.vpn == 1 && a.asid == 7));
        space.attach_sampler(None);
        space.read(&n0, VirtAddr::from_vpn(1), &mut buf).unwrap();
        assert!(ring.drain().is_empty(), "detached ring sees nothing");
    }

    #[test]
    fn huge_mapping_covers_whole_region() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        let region = rack
            .global()
            .alloc(crate::addr::HUGE_PAGE_SIZE, PAGE_SIZE)
            .unwrap();
        space
            .map(&n0, 512, Pte::new(PhysFrame::Global(region), true).huge())
            .unwrap();
        assert_eq!(space.mapped_pages(), 512);

        // Head vpn translates to the region base.
        let head = space
            .translate(&n0, VirtAddr::from_vpn(512))
            .unwrap()
            .unwrap();
        assert_eq!(head.frame, PhysFrame::Global(region));
        assert_eq!(head.page_size, PageSize::Huge);

        // Interior vpns synthesize offset 4 KiB views.
        let mid = space
            .translate(&n0, VirtAddr::from_vpn(700))
            .unwrap()
            .unwrap();
        assert_eq!(
            mid.frame,
            PhysFrame::Global(region.offset((700 - 512) * PAGE_SIZE as u64))
        );
        assert!(mid.writable);
        assert_eq!(mid.page_size, PageSize::Huge);

        // Outside the region stays unmapped.
        assert!(space
            .translate(&n0, VirtAddr::from_vpn(1024))
            .unwrap()
            .is_none());
        assert!(space
            .translate(&n0, VirtAddr::from_vpn(511))
            .unwrap()
            .is_none());

        // Byte-granular access works across interior page boundaries.
        let va = VirtAddr::from_vpn(600).offset(PAGE_SIZE as u64 - 5);
        space.write(&n0, va, b"huge-page-span").unwrap();
        let mut out = [0u8; 14];
        space.read(&n0, va, &mut out).unwrap();
        assert_eq!(&out, b"huge-page-span");

        assert!(space.unmap(&n0, 512).unwrap().is_some());
        assert_eq!(space.mapped_pages(), 0);
        assert!(space
            .translate(&n0, VirtAddr::from_vpn(700))
            .unwrap()
            .is_none());
    }

    #[test]
    fn migrating_huge_region_blocks_interior_access() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        let region = rack
            .global()
            .alloc(crate::addr::HUGE_PAGE_SIZE, PAGE_SIZE)
            .unwrap();
        let pte = Pte::new(PhysFrame::Global(region), true).huge();
        space.map(&n0, 0, pte).unwrap();
        space.map(&n0, 0, pte.begin_migration()).unwrap();
        let mut buf = [0u8; 8];
        assert!(matches!(
            space.read(&n0, VirtAddr::from_vpn(300), &mut buf),
            Err(SimError::WouldBlock)
        ));
        space.map(&n0, 0, pte).unwrap();
        assert!(space.read(&n0, VirtAddr::from_vpn(300), &mut buf).is_ok());
        assert_eq!(space.mapped_pages(), 512, "remap keeps the count");
    }

    #[test]
    #[should_panic(expected = "region head")]
    fn unaligned_huge_map_panics() {
        let (rack, space) = setup();
        let region = rack.global().alloc(PAGE_SIZE, PAGE_SIZE).unwrap();
        let _ = space.map(
            &rack.node(0),
            7,
            Pte::new(PhysFrame::Global(region), true).huge(),
        );
    }

    #[test]
    fn translate_reports_mapping() {
        let (rack, space) = setup();
        let n0 = rack.node(0);
        let frame = map_global_page(&rack, &space, 5, true);
        let pte = space
            .translate(&n0, VirtAddr::from_vpn(5).offset(123))
            .unwrap()
            .unwrap();
        assert_eq!(pte.frame, PhysFrame::Global(frame));
        assert!(space
            .translate(&n0, VirtAddr::from_vpn(6))
            .unwrap()
            .is_none());
    }
}
