//! Experiment implementations for every table and figure of the paper,
//! plus the ablations DESIGN.md commits to.
//!
//! Each experiment module returns structured rows; the `figures` binary
//! prints them as the paper-style tables. Wall-clock speed is measured
//! by the repo benchmark's `host_*` metrics (`benchmark/`), not here.
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
//! | [`cache_scale`] | §2 cache internals — node cache vs single-mutex, wall-clock, `flac-bench cache` |
//! | [`serve_scale`] | §4 serving at scale — open-loop sweep, `flac-bench serve` |
//! | [`store_scale`] | §4.2 chunk store — shard sweep and overlap, `flac-bench store` |
//! | [`sync_scale`] | §3.2 node replication — flat-combining sweep, `flac-bench sync` |
//! | [`topo_scale`] | §2.1/§3.3 — topology depth × page size, 1 shootdown per 2 MiB, `flac-bench topo` |
//! | [`suite`] | the `flac-bench` runner: one write/gate/check pipeline over the five suites above |
//! | [`report`] | the one report schema of those suites: writer, parser, rerun parity, `before[]` rows |
//! | [`faultstorm`] | §3.6 reliability — five seeded fault-storm campaigns, `flac-faultstorm` |

pub mod adaptive_ab;
pub mod cache_scale;
pub mod dedup_ab;
pub mod fabric_ab;
pub mod faultbox_ab;
pub mod faultstorm;
pub mod fig4;
pub mod ipc_ab;
pub mod pagecache_ab;
pub mod report;
pub mod serve_scale;
pub mod startup;
pub mod store_scale;
pub mod suite;
pub mod sync_ab;
pub mod sync_scale;
pub mod table;
pub mod tiering_ab;
pub mod topo_scale;
