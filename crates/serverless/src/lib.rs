//! # serverless — the rack-level serverless case study (paper §4)
//!
//! The paper motivates FlacOS with three serverless pain points: cold
//! start latency, interference under density, and service-chain
//! communication cost. This crate builds the §4.1 architecture on the
//! FlacOS substrate for the first two; the third is FlacOS IPC's cost
//! against TCP, which `figures -- ipc` measures directly:
//!
//! * [`image`] / [`registry`] — synthetic layered container images
//!   whose layers are chunk manifests (content-hash-addressed pages),
//!   and a remote registry serving manifests with realistic metadata
//!   costs; the bytes live on sharded `flac-store` backends.
//! * [`runtime`] — the container runtime with the three startup paths
//!   of §4.2: **cold** (fetch only the chunks the rack doesn't already
//!   hold, in parallel across backend shards), **FlacOS** (every chunk
//!   already resident in the rack-wide content-addressed store, placed
//!   there by whichever node fetched it first), and **hot** (runtime
//!   state already resident on this node).
//! * [`scheduler`] — density-aware placement with an interference model.
//!
//! The container-startup experiment (`figures -- startup`) reproduces
//! the paper's 21.067 s → 5.526 s → 3.02 s progression in shape.

pub mod image;
pub mod registry;
pub mod runtime;
pub mod scheduler;

pub use image::ContainerImage;
pub use registry::ImageRegistry;
pub use runtime::{ContainerRuntime, StartupPath, StartupReport};
pub use scheduler::DensityScheduler;
