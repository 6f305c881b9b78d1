//! # flacos-tier — rack-wide page tiering (paper §2.1 / §3.3)
//!
//! The paper's performance argument rests on the ~5.5× latency gap
//! between node-local DRAM (~90 ns) and interconnect loads (~500 ns).
//! This crate closes the feedback loop that exploits it: **observe**
//! page traffic through sampled translation telemetry
//! (`flacos_mem::telemetry`), **decide** with an exponential-decay
//! hotness tracker under a per-node local-DRAM budget, and **act** with
//! staged migrations that stay correct under incoherent caches (the
//! `Migrating` PTE guard + rack-wide TLB shootdown) and crash-consistent
//! (the old copy stays authoritative until the final remap).
//!
//! * [`TierDaemon`] — the per-node daemon: drain ring → tier split →
//!   demote/promote under the migration cap.
//! * [`Migration`] — the staged begin/copy/commit/abort protocol, for a
//!   4 KiB page or a 2 MiB region alike (chosen by `PageSize`).
//! * [`TierBudget`] — the rack-shared per-node free-local-DRAM ledger,
//!   also consulted by the schedulers for tier-aware placement.

pub mod budget;
pub mod daemon;
pub mod migrate;

pub use budget::TierBudget;
pub use daemon::{TierConfig, TierDaemon, TierTickReport};
pub use migrate::{LocalFramePool, Migration};
