//! The fault box: vertical consolidation of one application's state.
//!
//! Paper §3.6: *"Unlike existing systems which horizontally aggregate
//! the states of different applications together, a fault box vertically
//! consolidates a single application's memory and status based on the
//! application execution flow. ... For example, a fault box encompasses
//! the page table, context, communication buffer, stack, and heap of an
//! application."*
//!
//! Everything a box owns lives in global memory, reachable through one
//! enumeration ([`FaultBox::memory_objects`]), so checkpoint / recover /
//! migrate operate on the complete state set at once — and on *nothing
//! else*, which is what bounds the failure radius to one application.

use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacos_mem::addr::{PhysFrame, VirtAddr, PAGE_SIZE};
use flacos_mem::address_space::AddressSpace;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::page_table::Pte;
use rack_sim::{GAddr, GlobalMemory, NodeCtx, NodeId, SimError};
use std::sync::Arc;

/// Virtual base of the stack region.
pub const STACK_BASE: VirtAddr = VirtAddr(0x7000_0000);
/// Virtual base of the heap region.
pub const HEAP_BASE: VirtAddr = VirtAddr(0x1000_0000);
/// Bytes reserved for the saved execution context (registers, pc, flags).
pub const CONTEXT_BYTES: usize = 512;

/// Stable object-id namespace inside a box's checkpoint.
const OBJ_CONTEXT: u64 = 0;
const OBJ_STACK_BASE: u64 = 1_000;
const OBJ_HEAP_BASE: u64 = 2_000;
const OBJ_COMM_BASE: u64 = 3_000;

/// Builder for a [`FaultBox`].
#[derive(Debug)]
pub struct FaultBoxBuilder {
    app_id: u64,
    stack_pages: usize,
    heap_pages: usize,
}

impl FaultBoxBuilder {
    /// Start building a box for application `app_id`.
    pub fn new(app_id: u64) -> Self {
        FaultBoxBuilder {
            app_id,
            stack_pages: 2,
            heap_pages: 4,
        }
    }

    /// Stack size in pages (default 2).
    #[must_use]
    pub fn stack_pages(mut self, pages: usize) -> Self {
        self.stack_pages = pages;
        self
    }

    /// Heap size in pages (default 4).
    #[must_use]
    pub fn heap_pages(mut self, pages: usize) -> Self {
        self.heap_pages = pages;
        self
    }

    /// Materialize the box on `home`: allocate and map stack + heap
    /// frames in global memory and the context record.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn build(
        self,
        home: &Arc<NodeCtx>,
        global: &GlobalMemory,
        alloc: GlobalAllocator,
        frames: &FrameAllocator,
        epochs: Arc<EpochManager>,
    ) -> Result<FaultBox, SimError> {
        let space = AddressSpace::alloc(
            self.app_id,
            global,
            alloc.clone(),
            epochs,
            RetireList::new(),
        )?;
        let mut stack_frames = Vec::with_capacity(self.stack_pages);
        for i in 0..self.stack_pages {
            let f = frames.alloc(home)?;
            space.map(
                home,
                STACK_BASE.vpn() + i as u64,
                Pte::new(PhysFrame::Global(f), true),
            )?;
            stack_frames.push(f);
        }
        let mut heap_frames = Vec::with_capacity(self.heap_pages);
        for i in 0..self.heap_pages {
            let f = frames.alloc(home)?;
            space.map(
                home,
                HEAP_BASE.vpn() + i as u64,
                Pte::new(PhysFrame::Global(f), true),
            )?;
            heap_frames.push(f);
        }
        let context = global.alloc(CONTEXT_BYTES, 64)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "cold path: box construction happens once per workload, not per op"
        )]
        {
            let reg = home.stats().registry();
            reg.add("fault_box", "built", 1);
            let pages = (self.stack_pages + self.heap_pages) as u64;
            reg.add("fault_box", "pages_mapped", pages);
        }
        Ok(FaultBox {
            app_id: self.app_id,
            home: home.id(),
            space,
            context,
            stack_frames,
            heap_frames,
            comm_buffers: Vec::new(),
        })
    }
}

/// One application's vertically consolidated state.
#[derive(Debug)]
pub struct FaultBox {
    app_id: u64,
    home: NodeId,
    space: AddressSpace,
    context: GAddr,
    stack_frames: Vec<GAddr>,
    heap_frames: Vec<GAddr>,
    comm_buffers: Vec<(GAddr, usize)>,
}

impl FaultBox {
    /// The application this box belongs to.
    pub fn app_id(&self) -> u64 {
        self.app_id
    }

    /// The node currently executing the application.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// The application's shared address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Attach a communication buffer (e.g. an IPC ring segment) to the
    /// box, so its state recovers together with the application.
    pub fn register_comm_buffer(&mut self, addr: GAddr, len: usize) {
        self.comm_buffers.push((addr, len));
    }

    /// Save the execution context (register file image).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    ///
    /// # Panics
    ///
    /// Panics if `regs` exceeds [`CONTEXT_BYTES`].
    pub fn save_context(&self, ctx: &NodeCtx, regs: &[u8]) -> Result<(), SimError> {
        assert!(regs.len() <= CONTEXT_BYTES, "context record too large");
        ctx.write(self.context, regs)?;
        ctx.writeback(self.context, regs.len());
        Ok(())
    }

    /// Load the saved execution context.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn load_context(&self, ctx: &NodeCtx, out: &mut [u8]) -> Result<(), SimError> {
        ctx.invalidate(self.context, out.len());
        ctx.read(self.context, out)
    }

    /// Enumerate the box's complete state set as `(object id, addr,
    /// len)` — the unit of checkpoint, recovery, and migration.
    pub fn memory_objects(&self) -> Vec<(u64, GAddr, usize)> {
        let mut objs = vec![(OBJ_CONTEXT, self.context, CONTEXT_BYTES)];
        for (i, f) in self.stack_frames.iter().enumerate() {
            objs.push((OBJ_STACK_BASE + i as u64, *f, PAGE_SIZE));
        }
        for (i, f) in self.heap_frames.iter().enumerate() {
            objs.push((OBJ_HEAP_BASE + i as u64, *f, PAGE_SIZE));
        }
        for (i, (addr, len)) in self.comm_buffers.iter().enumerate() {
            objs.push((OBJ_COMM_BASE + i as u64, *addr, *len));
        }
        objs
    }

    /// Total bytes of state the box consolidates.
    pub fn state_bytes(&self) -> usize {
        self.memory_objects().iter().map(|(_, _, len)| len).sum()
    }

    /// Whether `addr` falls inside any of this box's objects.
    pub fn owns(&self, addr: GAddr) -> bool {
        self.memory_objects()
            .iter()
            .any(|(_, base, len)| base.0 <= addr.0 && addr.0 < base.0 + *len as u64)
    }

    /// Migrate execution to `target`. All state already lives in global
    /// memory, so migration transfers *ownership*, not data: the cost is
    /// the context hand-off, not a state copy — the paper's "efficient
    /// migration" enabled by vertical consolidation.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeDown`] if the target node has crashed.
    pub fn migrate(&mut self, from: &NodeCtx, to: &NodeCtx) -> Result<(), SimError> {
        if !to.is_alive() {
            return Err(SimError::NodeDown { node: to.id() });
        }
        // Flush the context + any cached box lines so the target reads
        // fresh state, then charge the descriptor hand-off.
        from.writeback(self.context, CONTEXT_BYTES);
        from.charge(from.latency().global_atomic_ns);
        to.charge(to.latency().global_read_ns);
        #[expect(
            clippy::disallowed_methods,
            reason = "cold path: migration is a rare orchestration event, not per op"
        )]
        to.stats().registry().add("fault_box", "migrations", 1);
        self.home = to.id();
        Ok(())
    }

    /// Adopt the box onto `to` after its home node *crashed* — the
    /// fault-box re-election path. Unlike [`FaultBox::migrate`], there is
    /// no live source to flush: whatever the dead node had dirty in its
    /// cache is lost (that is the crash), and the adopter invalidates its
    /// own cached view of every box object so it reads current global
    /// state instead of stale lines.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeDown`] if the adopting node is itself down.
    pub fn adopt(&mut self, to: &NodeCtx) -> Result<(), SimError> {
        if !to.is_alive() {
            return Err(SimError::NodeDown { node: to.id() });
        }
        for (_, addr, len) in self.memory_objects() {
            to.invalidate(addr, len);
        }
        to.charge(to.latency().global_read_ns);
        #[expect(
            clippy::disallowed_methods,
            reason = "cold path: adoption runs once per crash recovery, not per op"
        )]
        to.stats().registry().add("fault_box", "adoptions", 1);
        self.home = to.id();
        Ok(())
    }

    /// Heap virtual address of byte `offset`.
    pub fn heap_va(&self, offset: u64) -> VirtAddr {
        HEAP_BASE.offset(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    pub(crate) fn build_box(rack: &Rack, app_id: u64, node: usize) -> FaultBox {
        let alloc = GlobalAllocator::new(rack.global().clone());
        let frames = FrameAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        FaultBoxBuilder::new(app_id)
            .stack_pages(1)
            .heap_pages(2)
            .build(&rack.node(node), rack.global(), alloc, &frames, epochs)
            .unwrap()
    }

    fn rack() -> Rack {
        Rack::new(RackConfig::small_test().with_global_mem(64 << 20))
    }

    #[test]
    fn box_consolidates_all_state() {
        let rack = rack();
        let mut fbox = build_box(&rack, 1, 0);
        fbox.register_comm_buffer(GAddr(0x100), 256);
        let objs = fbox.memory_objects();
        // context + 1 stack + 2 heap + 1 comm buffer
        assert_eq!(objs.len(), 5);
        assert_eq!(fbox.state_bytes(), CONTEXT_BYTES + 3 * PAGE_SIZE + 256);
        assert!(fbox.owns(GAddr(0x100)));
        assert!(fbox.owns(fbox.context));
    }

    #[test]
    fn heap_and_stack_usable_through_address_space() {
        let rack = rack();
        let fbox = build_box(&rack, 1, 0);
        let n0 = rack.node(0);
        fbox.space()
            .write(&n0, fbox.heap_va(100), b"application data")
            .unwrap();
        let mut buf = [0u8; 16];
        fbox.space().read(&n0, fbox.heap_va(100), &mut buf).unwrap();
        assert_eq!(&buf, b"application data");
        fbox.space().write(&n0, STACK_BASE, &[1, 2, 3]).unwrap();
    }

    #[test]
    fn context_save_load_roundtrip() {
        let rack = rack();
        let fbox = build_box(&rack, 1, 0);
        let n0 = rack.node(0);
        let regs: Vec<u8> = (0..64).collect();
        fbox.save_context(&n0, &regs).unwrap();
        let mut out = vec![0u8; 64];
        fbox.load_context(&n0, &mut out).unwrap();
        assert_eq!(out, regs);
    }

    #[test]
    fn migration_moves_home_without_copying_state() {
        let rack = rack();
        let mut fbox = build_box(&rack, 1, 0);
        let (n0, n1) = (rack.node(0), rack.node(1));
        fbox.space()
            .write(&n0, fbox.heap_va(0), b"survives-migration")
            .unwrap();
        fbox.save_context(&n0, b"pc=main+42").unwrap();
        let copied_before = n1.stats().snapshot().bytes_copied;

        fbox.migrate(&n0, &n1).unwrap();
        assert_eq!(fbox.home(), n1.id());
        // Migration itself moved ~no bytes on the target.
        let copied_by_migrate = n1.stats().snapshot().bytes_copied - copied_before;
        assert!(
            copied_by_migrate < 64,
            "migration is ownership transfer, not a copy"
        );

        // Target continues with the same heap + context, in place.
        let mut buf = [0u8; 18];
        fbox.space().read(&n1, fbox.heap_va(0), &mut buf).unwrap();
        assert_eq!(&buf, b"survives-migration");
        let mut regs = vec![0u8; 10];
        fbox.load_context(&n1, &mut regs).unwrap();
        assert_eq!(&regs, b"pc=main+42");
    }

    #[test]
    fn migration_to_dead_node_fails() {
        let rack = rack();
        let mut fbox = build_box(&rack, 1, 0);
        rack.faults().crash_node(NodeId(1), 0);
        assert!(matches!(
            fbox.migrate(&rack.node(0), &rack.node(1)),
            Err(SimError::NodeDown { .. })
        ));
        assert_eq!(fbox.home(), NodeId(0), "home unchanged on failure");
    }

    #[test]
    fn adoption_after_home_crash_reads_committed_state() {
        let rack = rack();
        let mut fbox = build_box(&rack, 1, 0);
        let (n0, n1) = (rack.node(0), rack.node(1));
        fbox.space()
            .write(&n0, fbox.heap_va(0), b"committed!")
            .unwrap();
        for (_, addr, len) in fbox.memory_objects() {
            n0.writeback(addr, len);
        }
        rack.faults().crash_node(n0.id(), 0);
        fbox.adopt(&n1).unwrap();
        assert_eq!(fbox.home(), n1.id());
        let mut buf = [0u8; 10];
        fbox.space().read(&n1, fbox.heap_va(0), &mut buf).unwrap();
        assert_eq!(&buf, b"committed!");
    }

    #[test]
    fn adoption_onto_dead_node_fails() {
        let rack = rack();
        let mut fbox = build_box(&rack, 1, 0);
        rack.faults().crash_node(NodeId(1), 0);
        assert!(matches!(
            fbox.adopt(&rack.node(1)),
            Err(SimError::NodeDown { .. })
        ));
        assert_eq!(fbox.home(), NodeId(0));
    }

    #[test]
    fn distinct_boxes_own_disjoint_memory() {
        let rack = rack();
        let a = build_box(&rack, 1, 0);
        let b = build_box(&rack, 2, 1);
        for (_, addr, _) in a.memory_objects() {
            assert!(!b.owns(addr), "boxes must not share state");
        }
    }
}
