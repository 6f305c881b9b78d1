//! Level-3 FlacDK library: high-level concurrent data structures.
//!
//! Paper §3.2: *"The last library provides high-level concurrent data
//! structures, such as vector, hash tables, ring buffer, and radix
//! tree."* Each structure is built on one of the lock-free families,
//! chosen to match its access pattern:
//!
//! * [`hashmap::ReplicatedKv`] — replication-based map; reads stay local.
//! * [`ringbuf::SpscRing`] — publish/consume ring over global memory,
//!   the zero-copy IPC transport of §3.5.
//! * [`radix::RadixTree`] — RCU copy-on-write radix tree; backs the
//!   shared page cache (§3.4) and page-table-like indexes (§3.3).
//!
//! A delegation- or lock-based table is a [`crate::sync::SyncCell`] over
//! a map state with the matching policy.

pub mod hashmap;
pub mod radix;
pub mod ringbuf;

pub use hashmap::ReplicatedKv;
pub use radix::RadixTree;
pub use ringbuf::SpscRing;
