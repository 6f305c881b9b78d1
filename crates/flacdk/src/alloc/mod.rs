//! FlacDK memory management (paper §3.2 "Memory management").
//!
//! Two pieces:
//!
//! 1. [`object::GlobalAllocator`] — an object-granularity allocator over
//!    the global pool with size-class free lists, designed to be fed by
//!    the RCU reclamation path ([`crate::sync::reclaim`]) rather than by
//!    immediate frees.
//! 2. [`hotness::HotnessTracker`] — per-object access-frequency tracking
//!    with exponential decay, driving layout packing decisions.
//!
//! The paper's third piece, runtime relocation between global and local
//! tiers, is page migration in `flacos-tier`, not an object table here.

pub mod hotness;
pub mod object;

pub use hotness::HotnessTracker;
pub use object::GlobalAllocator;
