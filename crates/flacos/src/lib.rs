//! # FlacOS — a coordinated, partially shared OS for rack-scale machines
//!
//! This crate is the paper's primary contribution assembled: it boots a
//! simulated memory-interconnected rack ([`rack_sim`]) and instantiates
//! the FlacOS kernel on it — the strategically *shared* kernel state in
//! global memory (page tables, page cache, IPC buffers, operation logs)
//! coordinated with per-node *local* state (VMAs, TLBs, node-local reads
//! of the replicated file-system metadata and socket tables), so the
//! whole rack operates as one machine.
//!
//! ```
//! use flacos::prelude::*;
//!
//! # fn main() -> Result<(), rack_sim::SimError> {
//! // Boot a 2-node, 640-core rack joined by an HCCS-like interconnect.
//! let rack = FlacRack::boot(RackConfig::two_node_hccs())?;
//! let mut os0 = rack.node_os(0);
//! let mut os1 = rack.node_os(1);
//!
//! // One file system, one page cache copy, visible from every node.
//! os0.fs_mut().mkdir("/etc")?;
//! os0.fs_mut().write_file("/etc/motd", b"rack as a computer")?;
//! assert_eq!(os1.fs_mut().read_file("/etc/motd")?, b"rack as a computer");
//! # Ok(())
//! # }
//! ```
//!
//! Layer map (paper section → crate):
//!
//! | Layer | Crate |
//! |---|---|
//! | Rack hardware (non-coherent shared memory, faults) | [`rack_sim`] |
//! | FlacDK: sync, allocation, reliability toolkit (§3.2) | [`flacdk`] |
//! | Memory system: shared page tables, TLB, dedup (§3.3) | [`flacos_mem`] |
//! | File system: shared page cache, journaling (§3.4) | [`flacos_fs`] |
//! | Communication: zero-copy IPC, migration RPC (§3.5) | [`flacos_ipc`] |
//! | Reliability: fault box, adaptive redundancy (§3.6) | [`flacos_fault`] |
//! | This crate: boot, node OS instances, processes, scheduling | — |

pub mod boot;
pub mod node_os;
pub mod process;
pub mod rack;
pub mod scheduler;

pub use boot::BootTable;
pub use node_os::NodeOs;
pub use process::{Process, ProcessState};
pub use rack::FlacRack;
pub use scheduler::RackScheduler;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::node_os::NodeOs;
    pub use crate::process::{Process, ProcessState};
    pub use crate::rack::FlacRack;
    pub use crate::scheduler::RackScheduler;
    pub use flacos_fault::{Criticality, RedundancyPolicy};
    pub use rack_sim::{NodeId, RackConfig, SimError};
}
