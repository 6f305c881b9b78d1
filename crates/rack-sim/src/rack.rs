//! The assembled rack: nodes + global memory + fabric + fault injector.

use crate::cache::CacheConfig;
use crate::fault::{FaultInjector, NodeLiveness};
use crate::interconnect::Interconnect;
use crate::latency::LatencyModel;
use crate::memory::GlobalMemory;
use crate::metrics::CostClass;
use crate::node::NodeCtx;
use crate::stats::StatsSnapshot;
use crate::topology::{NodeId, RackTopology};
use std::fmt;
use std::sync::Arc;

/// Configuration for building a [`Rack`].
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// Compute topology (node/core counts, hop distances).
    pub topology: RackTopology,
    /// Latency cost model.
    pub latency: LatencyModel,
    /// Global (interconnect-shared) memory pool size in bytes.
    pub global_mem_bytes: usize,
    /// Per-node local memory arena size in bytes.
    pub local_mem_bytes: usize,
    /// Per-node cache configuration.
    pub cache: CacheConfig,
    /// Seed for the deterministic fault injector.
    pub seed: u64,
}

impl RackConfig {
    /// The paper's physical testbed shape: 2 nodes × 320 cores over HCCS,
    /// with a 256 MiB shared pool (scaled from the testbed for host RAM).
    pub fn two_node_hccs() -> Self {
        RackConfig {
            topology: RackTopology::kunpeng_two_node(),
            latency: LatencyModel::hccs(),
            global_mem_bytes: 256 << 20,
            local_mem_bytes: 64 << 20,
            cache: CacheConfig::default(),
            seed: 0xF1AC,
        }
    }

    /// A small rack for unit tests: 2 nodes, 1 MiB pools.
    pub fn small_test() -> Self {
        RackConfig {
            topology: RackTopology::switched(2, 4),
            latency: LatencyModel::hccs(),
            global_mem_bytes: 1 << 20,
            local_mem_bytes: 1 << 20,
            cache: CacheConfig::default(),
            seed: 7,
        }
    }

    /// An `n`-node switched rack with modest pools, for scaling ablations.
    pub fn n_node(n: usize) -> Self {
        RackConfig {
            topology: RackTopology::switched(n, 16),
            latency: LatencyModel::hccs(),
            global_mem_bytes: 64 << 20,
            local_mem_bytes: 16 << 20,
            cache: CacheConfig::default(),
            seed: 7,
        }
    }

    /// A multi-rack pod: `racks` racks of `nodes_per_rack` nodes (one
    /// socket each) under a pod spine, with global memory interleaved
    /// page-wise across the leaves so memory costs charge by
    /// requester→home distance class. For hierarchical-topology
    /// ablations against the depth-1 [`RackConfig::n_node`] shape.
    pub fn pod(nodes_per_rack: usize, racks: usize) -> Self {
        RackConfig {
            topology: RackTopology::pod(1, nodes_per_rack, racks, 16).with_home_interleaved(4096),
            latency: LatencyModel::hccs(),
            global_mem_bytes: 64 << 20,
            local_mem_bytes: 16 << 20,
            cache: CacheConfig::default(),
            seed: 7,
        }
    }

    /// Replace the latency model (builder-style).
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replace the global pool size (builder-style).
    #[must_use]
    pub fn with_global_mem(mut self, bytes: usize) -> Self {
        self.global_mem_bytes = bytes;
        self
    }

    /// Replace the fault-injection seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for RackConfig {
    fn default() -> Self {
        Self::two_node_hccs()
    }
}

/// A fully assembled simulated rack.
///
/// Cloning is cheap; all clones refer to the same simulated hardware.
#[derive(Debug, Clone)]
pub struct Rack {
    config: RackConfig,
    global: Arc<GlobalMemory>,
    nodes: Vec<Arc<NodeCtx>>,
    interconnect: Arc<Interconnect>,
    faults: Arc<FaultInjector>,
    liveness: Arc<NodeLiveness>,
}

impl Rack {
    /// Build a rack from `config`.
    pub fn new(config: RackConfig) -> Self {
        let global = Arc::new(GlobalMemory::new(config.global_mem_bytes));
        let latency = Arc::new(config.latency.clone());
        let liveness = NodeLiveness::new(config.topology.nodes());
        let faults = Arc::new(FaultInjector::new(config.seed, liveness.clone()));
        let interconnect = Arc::new(Interconnect::new(
            config.topology.clone(),
            config.latency.clone(),
            liveness.clone(),
            faults.clone(),
        ));
        let nodes = config
            .topology
            .node_ids()
            .map(|id| {
                Arc::new(NodeCtx::new(
                    id,
                    global.clone(),
                    config.local_mem_bytes,
                    config.cache.clone(),
                    latency.clone(),
                    interconnect.clone(),
                    liveness.clone(),
                ))
            })
            .collect();
        Rack {
            config,
            global,
            nodes,
            interconnect,
            faults,
            liveness,
        }
    }

    /// The configuration this rack was built from.
    pub fn config(&self) -> &RackConfig {
        &self.config
    }

    /// Node context by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node(&self, idx: usize) -> Arc<NodeCtx> {
        self.nodes[idx].clone()
    }

    /// All node contexts.
    pub fn nodes(&self) -> &[Arc<NodeCtx>] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The rack's shared global memory.
    pub fn global(&self) -> &Arc<GlobalMemory> {
        &self.global
    }

    /// The message fabric.
    pub fn interconnect(&self) -> &Arc<Interconnect> {
        &self.interconnect
    }

    /// The fault injector.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Node liveness flags.
    pub fn liveness(&self) -> &Arc<NodeLiveness> {
        &self.liveness
    }

    /// Whether node `id` is alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.liveness.is_alive(id)
    }

    /// Maximum simulated time across all node clocks — the rack-wide
    /// "makespan" of an experiment.
    pub fn max_time_ns(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.clock().now())
            .max()
            .unwrap_or(0)
    }

    /// Enable event tracing on every node.
    pub fn enable_tracing(&self) {
        for n in &self.nodes {
            n.stats().trace().enable();
        }
    }

    /// Disable event tracing on every node (captured events are kept).
    pub fn disable_tracing(&self) {
        for n in &self.nodes {
            n.stats().trace().disable();
        }
    }

    /// Collect every node's metrics and merge them into a rack-wide
    /// report: operation counts, cache behaviour, per-cost-class latency
    /// histograms, and subsystem counters.
    pub fn metrics_report(&self) -> RackReport {
        let per_node: Vec<StatsSnapshot> =
            self.nodes.iter().map(|n| n.stats().snapshot()).collect();
        let mut merged = StatsSnapshot::default();
        for snap in &per_node {
            merged.merge(snap);
        }
        RackReport {
            per_node,
            merged,
            makespan_ns: self.max_time_ns(),
        }
    }
}

/// Merged metrics for a whole rack, plus the per-node snapshots they came
/// from. `Display` renders the operation-count decomposition the
/// experiment tables use to explain their numbers.
#[derive(Debug, Clone)]
pub struct RackReport {
    /// One snapshot per node, indexed by node id.
    pub per_node: Vec<StatsSnapshot>,
    /// All nodes merged (counts summed, histograms bucket-wise summed).
    pub merged: StatsSnapshot,
    /// Maximum simulated time across all node clocks at capture.
    pub makespan_ns: u64,
}

impl fmt::Display for RackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &self.merged;
        writeln!(
            f,
            "  ops: {} global reads, {} global writes, {} atomics, {} local, {} msgs ({} B), {} B copied",
            m.global_reads,
            m.global_writes,
            m.global_atomics,
            m.local_accesses,
            m.messages_sent,
            m.message_bytes,
            m.bytes_copied,
        )?;
        writeln!(
            f,
            "  tier: {} B via local DRAM, {} B via global pool",
            m.local_bytes, m.global_bytes,
        )?;
        writeln!(
            f,
            "  cache: {} hits ({} coalesced), {} misses, {} allocs, {} writebacks, {} invalidations, {} evictions",
            m.cache_hits,
            m.cache_coalesced_fills,
            m.cache_misses,
            m.cache_allocs,
            m.cache_writebacks,
            m.cache_invalidations,
            m.cache_evictions,
        )?;
        for class in CostClass::ALL {
            let h = m.histogram(class);
            if h.count > 0 {
                writeln!(f, "  lat[{:>12}]: {}", class.label(), h.summary())?;
            }
        }
        if !m.subsystems.is_empty() {
            for c in &m.subsystems {
                writeln!(f, "  ctr[{}/{}]: {}", c.subsystem, c.name, c.value)?;
            }
        }
        write!(
            f,
            "  makespan: {} ns over {} node(s)",
            self.makespan_ns,
            self.per_node.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_topology() {
        let rack = Rack::new(RackConfig::n_node(4));
        assert_eq!(rack.node_count(), 4);
        for (i, n) in rack.nodes().iter().enumerate() {
            assert_eq!(n.id(), NodeId(i));
        }
        assert!(rack.is_alive(NodeId(3)));
    }

    #[test]
    fn global_pool_shared_between_nodes() {
        let rack = Rack::new(RackConfig::small_test());
        let a = rack.global().alloc(8, 8).unwrap();
        rack.node(0).store_uncached_u64(a, 11).unwrap();
        assert_eq!(rack.node(1).load_uncached_u64(a).unwrap(), 11);
    }

    #[test]
    fn max_time_and_reset() {
        let rack = Rack::new(RackConfig::small_test());
        rack.node(0).charge(50);
        rack.node(1).charge(75);
        assert_eq!(rack.max_time_ns(), 75);
    }

    #[test]
    fn config_builders() {
        let cfg = RackConfig::small_test()
            .with_latency(LatencyModel::cxl_switched())
            .with_global_mem(2 << 20)
            .with_seed(99);
        assert_eq!(cfg.global_mem_bytes, 2 << 20);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.latency, LatencyModel::cxl_switched());
    }
}
