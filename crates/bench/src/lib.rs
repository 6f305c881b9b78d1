//! Experiment implementations for every table and figure of the paper,
//! plus the ablations DESIGN.md commits to.
//!
//! Each experiment module returns structured rows; the `figures` binary
//! prints them as the paper-style tables, and the bench targets in
//! `benches/` (built with `--features criterion`, running on the vendored
//! [`harness`] module) wrap the same entry points so `cargo bench`
//! exercises the identical code paths.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig4`] | Figure 4 — Redis SET/GET latency, FlacOS IPC vs TCP/IP |
//! | [`startup`] | §4.2 container startup: cold / FlacOS / hot |
//! | [`sync_ab`] | Ablation A1 — the three lock-free families vs locking |
//! | [`pagecache_ab`] | Ablation A2 — shared vs per-node page caches |
//! | [`faultbox_ab`] | Ablation A3 — fault-box blast radius & recovery |
//! | [`ipc_ab`] | Ablation A4 — transport latency across message sizes |
//! | [`dedup_ab`] | Ablation A5 — page dedup effectiveness |
//! | [`fabric_ab`] | Ablation A6 — sensitivity to the interconnect generation |
//! | [`tiering_ab`] | Ablation A7 — page tiering daemon off vs on |
//! | [`adaptive_ab`] | Ablation A8 — fixed sync policies vs adaptive driver |
//! | [`cache_scale`] | §2 cache internals — sharded vs single-mutex, wall-clock |
//! | [`serve_scale`] | §4 serving at scale — `flac-loadgen` open-loop sweep |
//! | [`store_scale`] | §4.2 chunk store — shard sweep and overlap, `flac-store-scale` |
//! | [`sync_scale`] | §3.2 node replication — flat-combining sweep, `flac-sync-scale` |
//! | [`topo_scale`] | §2.1/§3.3 — topology depth × page size, 1 shootdown per 2 MiB |
//! | [`faultstorm`] | §3.6 reliability — five seeded fault-storm campaigns, `flac-faultstorm` |

pub mod adaptive_ab;
pub mod cache_scale;
pub mod dedup_ab;
pub mod fabric_ab;
pub mod faultbox_ab;
pub mod faultstorm;
pub mod fig4;
pub mod harness;
pub mod ipc_ab;
pub mod pagecache_ab;
pub mod report;
pub mod serve_scale;
pub mod startup;
pub mod store_scale;
pub mod sync_ab;
pub mod sync_scale;
pub mod table;
pub mod tiering_ab;
pub mod topo_scale;
