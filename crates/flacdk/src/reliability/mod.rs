//! FlacDK reliability mechanisms (paper §3.2 "Reliability").
//!
//! *"These mechanisms cover the entire fault handling process, including
//! system monitoring, failure prediction, fault detection, checkpointing,
//! and recovery."* — one module per stage this reproduction implements:
//!
//! * [`monitor`] — heartbeat table in global memory; suspects silent nodes.
//! * [`detect`] — checksum guards over global regions; detects both
//!   poisoned words (read faults) and silent corruption.
//! * [`checkpoint`] — epoch-pinned object snapshots; reuses the RCU
//!   multi-version machinery (the sync/reliability co-design).
//!
//! Failure prediction is not reproduced. Recovery is log replay through
//! the sync layer: [`crate::sync::SyncCell::on_node_crash`] and
//! [`crate::sync::SyncCell::replay`] fold the committed operation log,
//! and `flacos-fault` drives them together with checkpoint restore.

pub mod checkpoint;
pub mod detect;
pub mod monitor;

pub use checkpoint::{Checkpoint, CheckpointManager};
pub use detect::{Detection, FaultDetector};
pub use monitor::{HealthMonitor, NodeHealth};
