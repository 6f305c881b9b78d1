//! Level-3 FlacDK library: high-level concurrent data structures.
//!
//! Paper §3.2: *"The last library provides high-level concurrent data
//! structures, such as vector, hash tables, ring buffer, and radix
//! tree."* Each structure is built on one of the lock-free families,
//! chosen to match its access pattern:
//!
//! * [`ringbuf::SpscRing`] — publish/consume ring over global memory,
//!   the zero-copy IPC transport of §3.5.
//! * [`radix::RadixTree`] — RCU copy-on-write radix tree; backs the
//!   shared page cache (§3.4) and page-table-like indexes (§3.3).
//!
//! A hash table is a [`crate::sync::SyncCell`] over a map state, with the
//! policy matching its access pattern (replication when reads dominate,
//! as for the socket name table in `flacos-ipc`).

pub mod radix;
pub mod ringbuf;

pub use radix::RadixTree;
pub use ringbuf::SpscRing;
