//! Level-3 FlacDK library: high-level concurrent data structures.
//!
//! Paper §3.2: *"The last library provides high-level concurrent data
//! structures, such as vector, hash tables, ring buffer, and radix
//! tree."* Each structure is built on one of the lock-free families,
//! chosen to match its access pattern:
//!
//! * [`hashmap::ReplicatedKv`] — replication-based map; reads stay local.
//! * [`hashmap::DelegatedKvSim`] — delegation-based partitioned map;
//!   write-heavy workloads ship ops to partition owners.
//! * [`ringbuf::SpscRing`] — publish/consume ring over global memory,
//!   the zero-copy IPC transport of §3.5.
//! * [`radix::RadixTree`] — RCU copy-on-write radix tree; backs the
//!   shared page cache (§3.4) and page-table-like indexes (§3.3).

pub mod hashmap;
pub mod radix;
pub mod ringbuf;

pub use hashmap::{DelegatedKvSim, KvService, ReplicatedKv};
pub use radix::RadixTree;
pub use ringbuf::SpscRing;
