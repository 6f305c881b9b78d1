//! # FlacDK — the FlacOS Development Kit
//!
//! FlacDK is the lowest layer of FlacOS (paper §3.2): a toolkit of
//! synchronization, memory-management, and reliability mechanisms that
//! both the FlacOS kernel subsystems and applications build on. All of it
//! targets the hostile memory model enforced by [`rack_sim`]: global
//! memory is slow, **not cache coherent**, and fails.
//!
//! ## The three libraries (paper §3.2 "Synchronization")
//!
//! 1. **Hardware operations** ([`hw`]) — typed wrappers over fabric
//!    atomics, memory barriers, and cache flush/invalidate/write-back.
//! 2. **Synchronization interfaces** ([`sync`]) — one policy-driven
//!    facade, [`sync::SyncCell`], over a baseline global spinlock and the
//!    three lock-free families the paper identifies: *replication*
//!    (NR-style operation-log replicas, per node or flat-combined),
//!    *delegation* (ffwd-style request shipping to an owner node), and
//!    *quiescence* (epoch-based multi-version RCU with interval
//!    reclamation, [`sync::rcu`]).
//! 3. **Concurrent data structures** ([`ds`]) — ring buffer and radix
//!    tree built from the primitives above; a shared table is a
//!    [`sync::SyncCell`] over a map state.
//!
//! ## Memory management (paper §3.2 "Memory management")
//!
//! [`alloc`] provides the object-granularity global allocator (hooked
//! into epoch reclamation) and hotness-driven layout packing; tiering
//! itself is page migration in `flacos-tier`.
//!
//! ## Reliability (paper §3.2 "Reliability")
//!
//! [`reliability`] covers monitoring, fault detection and checkpointing,
//! *co-designed* with the synchronization layer: checkpoints pin RCU
//! epochs so multi-version objects double as snapshots, and the shared
//! operation log doubles as the redo log that recovery replays.

pub mod alloc;
pub mod ds;
pub mod hw;
pub mod reliability;
pub mod sync;
pub mod wire;

pub use rack_sim::{GAddr, NodeCtx, Rack, RackConfig, SimError};
