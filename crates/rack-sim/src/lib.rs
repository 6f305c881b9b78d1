//! # rack-sim — a simulated memory-interconnected rack
//!
//! This crate is the hardware substrate for the FlacOS reproduction. It
//! models the rack-scale architecture described in the paper's §2.1: a set
//! of general-purpose nodes, each with private local memory, joined by a
//! memory interconnect (HCCS/CXL-like) that exposes a *global* memory pool
//! to every node with load/store semantics, **basic atomics, and no
//! hardware cache coherence**.
//!
//! The three properties the paper's design hinges on are all enforced here:
//!
//! 1. **Latency asymmetry** — every access charges simulated nanoseconds to
//!    the acting node's [`SimClock`] according to a [`LatencyModel`]
//!    (local DRAM ≪ interconnect load/store ≪ interconnect atomic).
//! 2. **Non-coherence** — each node owns a software [`cache::NodeCache`]
//!    over global memory. Reads may return stale data until the node
//!    explicitly invalidates; writes are invisible to other nodes until
//!    explicitly written back. Atomics bypass the cache entirely.
//! 3. **Fault surface** — a seeded [`fault::FaultInjector`] can poison
//!    global memory words, crash nodes, and sever interconnect links, so
//!    fault-tolerance layers above have something real to tolerate.
//!
//! The entry point is [`Rack`]; per-node code acts through a [`NodeCtx`].
//!
//! ```
//! use rack_sim::{Rack, RackConfig};
//!
//! # fn main() -> Result<(), rack_sim::SimError> {
//! let rack = Rack::new(RackConfig::two_node_hccs());
//! let n0 = rack.node(0);
//! let n1 = rack.node(1);
//!
//! let addr = rack.global().alloc(64, 8)?;
//! n0.write_u64(addr, 42)?;        // cached on node 0, invisible to node 1
//! n0.flush(addr, 8);              // write back + invalidate
//! assert_eq!(n1.read_u64(addr)?, 42);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod clock;
pub mod error;
pub mod fault;
pub mod interconnect;
pub mod latency;
pub mod memory;
pub mod metrics;
pub mod node;
pub mod rack;
pub mod rng;
pub mod stats;
pub mod storm;
pub mod sync;
pub mod topology;

pub use cache::{CacheConfig, LINE_SIZE};
pub use clock::SimClock;
pub use error::SimError;
pub use fault::{FaultEvent, FaultInjector, FaultKind};
pub use interconnect::{Interconnect, Message};
pub use latency::LatencyModel;
pub use memory::{GAddr, GlobalMemory, LAddr, LocalMemory};
pub use metrics::{
    AddrClass, CostClass, Counter, CounterRegistry, HistogramSnapshot, LatencyHistogram, OpKind,
    TraceEvent, TraceRing,
};
pub use node::NodeCtx;
pub use rack::{Rack, RackConfig, RackReport};
pub use rng::{SplitMix64, Zipf};
pub use stats::{NodeStats, StatsSnapshot};
pub use storm::{StormCounts, StormOp, StormShape, StormStep};
pub use topology::{HomePolicy, NodeId, RackTopology, TopoLevel};
