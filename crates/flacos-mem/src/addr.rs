//! Address types for the unified (single-level) rack address space.

use rack_sim::{GAddr, LAddr, NodeId};
use std::fmt;

/// Page size in bytes (4 KiB, matching the paper's platforms).
pub const PAGE_SIZE: usize = 4096;

/// Huge page size in bytes (2 MiB, the x86/ARM second-level size).
pub const HUGE_PAGE_SIZE: usize = 2 << 20;

/// Number of base pages covered by one huge page.
pub const PAGES_PER_HUGE: u64 = (HUGE_PAGE_SIZE / PAGE_SIZE) as u64;

/// Translation granularity of a mapping. Huge mappings cover
/// [`PAGES_PER_HUGE`] consecutive base pages with one PTE, so remaps
/// and TLB shootdowns touch the whole region in one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageSize {
    /// 4 KiB base page.
    #[default]
    Base,
    /// 2 MiB huge page.
    Huge,
}

impl PageSize {
    /// Bytes covered by one page of this size.
    pub fn bytes(self) -> usize {
        match self {
            PageSize::Base => PAGE_SIZE,
            PageSize::Huge => HUGE_PAGE_SIZE,
        }
    }

    /// Base pages covered by one page of this size.
    pub fn pages(self) -> u64 {
        match self {
            PageSize::Base => 1,
            PageSize::Huge => PAGES_PER_HUGE,
        }
    }
}

/// The region-head vpn of the 2 MiB-aligned region containing `vpn` —
/// where a huge mapping's single PTE lives.
pub fn huge_base(vpn: u64) -> u64 {
    vpn & !(PAGES_PER_HUGE - 1)
}

/// A virtual address inside a FlacOS address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Virtual page number containing this address.
    pub fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// Byte offset within the page.
    pub fn page_offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// Address `bytes` past this one.
    #[must_use]
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }

    /// The base address of virtual page `vpn`.
    pub fn from_vpn(vpn: u64) -> VirtAddr {
        VirtAddr(vpn * PAGE_SIZE as u64)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v:{:#x}", self.0)
    }
}

/// A physical page frame — the "heterogeneous" in the shared
/// heterogeneous page table: frames may live in the rack's global pool
/// or in one node's local memory, unified into one address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysFrame {
    /// A page-aligned frame in global (interconnect-shared) memory.
    Global(GAddr),
    /// A page-aligned frame in `node`'s local memory; only that node can
    /// access it directly (remote access must go through messaging).
    Local(NodeId, LAddr),
}

impl PhysFrame {
    /// The owning node for local frames.
    pub fn home_node(self) -> Option<NodeId> {
        match self {
            PhysFrame::Global(_) => None,
            PhysFrame::Local(node, _) => Some(node),
        }
    }
}

impl fmt::Display for PhysFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysFrame::Global(a) => write!(f, "frame[{a}]"),
            PhysFrame::Local(n, a) => write!(f, "frame[{n}:l:{:#x}]", a.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_and_offset_decompose() {
        let va = VirtAddr(3 * PAGE_SIZE as u64 + 17);
        assert_eq!(va.vpn(), 3);
        assert_eq!(va.page_offset(), 17);
        assert_eq!(VirtAddr::from_vpn(3).vpn(), 3);
        assert_eq!(va.offset(PAGE_SIZE as u64).vpn(), 4);
    }

    #[test]
    fn page_size_dimensions() {
        assert_eq!(PageSize::Base.bytes(), 4096);
        assert_eq!(PageSize::Huge.bytes(), 2 << 20);
        assert_eq!(PageSize::Base.pages(), 1);
        assert_eq!(PageSize::Huge.pages(), 512);
        assert_eq!(PAGES_PER_HUGE, 512);
        assert_eq!(PageSize::default(), PageSize::Base);
    }

    #[test]
    fn huge_base_aligns_down() {
        assert_eq!(huge_base(0), 0);
        assert_eq!(huge_base(511), 0);
        assert_eq!(huge_base(512), 512);
        assert_eq!(huge_base(1000), 512);
        assert_eq!(huge_base(1024), 1024);
    }

    #[test]
    fn frame_kinds() {
        let g = PhysFrame::Global(GAddr(0x1000));
        let l = PhysFrame::Local(NodeId(1), LAddr(0x2000));
        assert_eq!(g.home_node(), None);
        assert_eq!(l.home_node(), Some(NodeId(1)));
        assert!(g.to_string().contains("0x1000"));
        assert!(l.to_string().contains("node1"));
    }
}
