//! Booting FlacOS onto a simulated rack.
//!
//! [`FlacRack::boot`] assembles the whole system: the hardware
//! ([`rack_sim::Rack`]), the shared kernel structures (allocator, epoch
//! manager, shared file system, RPC context table, rack scheduler,
//! health monitor, socket name table), and the boot table advertising the
//! hardware in global memory. [`FlacRack::node_os`] then instantiates a
//! per-node OS view — the "coordinated" half of coordinated OS sharing.

use crate::boot::{BootTable, BOOT_TABLE_BYTES};
use crate::node_os::NodeOs;
use crate::scheduler::RackScheduler;
use flacdk::alloc::GlobalAllocator;
use flacdk::reliability::monitor::HealthMonitor;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacdk::sync::SyncCell;
use flacos_fs::block::BlockDevice;
use flacos_fs::memfs::FsShared;
use flacos_ipc::channel::{FlacChannel, FlacEndpoint};
use flacos_ipc::rpc::RpcRegistry;
use flacos_ipc::socket_meta::{SocketRegistry, SocketTable};
use flacos_mem::fault::FrameAllocator;
use flacos_tier::TierBudget;
use rack_sim::{GAddr, Rack, RackConfig, SimError};
use std::sync::Arc;

/// Default heartbeat timeout: 50 ms of simulated silence.
const HEARTBEAT_TIMEOUT_NS: u64 = 50_000_000;

/// A booted FlacOS rack. Clone-cheap: clones share the same rack.
#[derive(Debug, Clone)]
pub struct FlacRack {
    sim: Rack,
    alloc: GlobalAllocator,
    frames: FrameAllocator,
    epochs: Arc<EpochManager>,
    retired: RetireList,
    fs: Arc<FsShared>,
    rpc: Arc<RpcRegistry>,
    scheduler: Arc<RackScheduler>,
    monitor: Arc<HealthMonitor>,
    socket_table: Arc<SyncCell<SocketTable>>,
    tier_budget: Arc<TierBudget>,
    boot_addr: GAddr,
}

impl FlacRack {
    /// Boot FlacOS on a rack of the given shape.
    ///
    /// # Errors
    ///
    /// Fails when the global pool cannot hold the shared kernel state.
    pub fn boot(config: RackConfig) -> Result<Self, SimError> {
        let sim = Rack::new(config.clone());
        let nodes = sim.node_count();
        let node0 = sim.node(0);

        // Firmware step: node 0 publishes the hardware description.
        let boot_addr = sim.global().alloc(BOOT_TABLE_BYTES, 64)?;
        BootTable::describe(&config).publish(&node0, boot_addr)?;

        let alloc = GlobalAllocator::new(sim.global().clone());
        let frames = FrameAllocator::new(sim.global().clone());
        let epochs = EpochManager::alloc(sim.global(), nodes)?;
        let retired = RetireList::new();
        let fs = FsShared::alloc(
            sim.global(),
            nodes,
            alloc.clone(),
            epochs.clone(),
            retired.clone(),
            Arc::new(BlockDevice::nvme(sim.global(), nodes)?),
        )?;
        let rpc = RpcRegistry::alloc(sim.global(), nodes)?;
        let scheduler = RackScheduler::alloc(sim.global(), nodes)?;
        let monitor = HealthMonitor::alloc(sim.global(), nodes, HEARTBEAT_TIMEOUT_NS)?;
        let socket_table = SocketRegistry::alloc_shared(sim.global(), nodes)?;
        // A quarter of each node's local memory is promotion budget; the
        // rest stays with the bump allocator for kernel structures.
        let tier_budget =
            TierBudget::alloc(sim.global(), nodes, (config.local_mem_bytes / 4) as u64)?;

        Ok(FlacRack {
            sim,
            alloc,
            frames,
            epochs,
            retired,
            fs,
            rpc,
            scheduler,
            monitor,
            socket_table,
            tier_budget,
            boot_addr,
        })
    }

    /// Instantiate the OS view for node `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node_os(&self, idx: usize) -> NodeOs {
        NodeOs::start(self.clone(), self.sim.node(idx))
    }

    /// The underlying simulated rack (hardware access, fault injection).
    pub fn sim(&self) -> &Rack {
        &self.sim
    }

    /// The shared object allocator.
    pub fn alloc(&self) -> &GlobalAllocator {
        &self.alloc
    }

    /// The shared page-frame allocator.
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// The rack-wide epoch manager.
    pub fn epochs(&self) -> &Arc<EpochManager> {
        &self.epochs
    }

    /// The rack-wide retire list.
    pub fn retired(&self) -> &RetireList {
        &self.retired
    }

    /// The shared file system state.
    pub fn fs_shared(&self) -> &Arc<FsShared> {
        &self.fs
    }

    /// The shared RPC code-context table.
    pub fn rpc(&self) -> &Arc<RpcRegistry> {
        &self.rpc
    }

    /// The rack scheduler.
    pub fn scheduler(&self) -> &Arc<RackScheduler> {
        &self.scheduler
    }

    /// The health monitor.
    pub fn monitor(&self) -> &Arc<HealthMonitor> {
        &self.monitor
    }

    /// The shared socket name table every node's registry views.
    pub fn socket_table(&self) -> &Arc<SyncCell<SocketTable>> {
        &self.socket_table
    }

    /// The rack-shared per-node local-DRAM tier budget ledger.
    pub fn tier_budget(&self) -> &Arc<TierBudget> {
        &self.tier_budget
    }

    /// The directory of policy-driven sync cells backing this rack's
    /// shared kernel structures, as recovery hooks. `flacos-fault`'s
    /// orchestrator walks this list on a node crash so a delegation
    /// owner's death re-elects a survivor and replays committed ops.
    pub fn sync_recovery(&self) -> Vec<Arc<dyn flacdk::sync::SyncRecover>> {
        vec![
            self.fs.cache().sync_cell(),
            self.rpc.sync_cell(),
            self.scheduler.sync_cell(),
        ]
    }

    /// Read the published hardware description from any node.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn boot_table(&self, node_idx: usize) -> Result<BootTable, SimError> {
        BootTable::discover(&self.sim.node(node_idx), self.boot_addr)
    }

    /// Create a zero-copy IPC channel between two nodes.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn channel(
        &self,
        a_idx: usize,
        b_idx: usize,
    ) -> Result<(FlacEndpoint, FlacEndpoint), SimError> {
        FlacChannel::create(
            self.sim.global(),
            self.alloc.clone(),
            self.sim.node(a_idx),
            self.sim.node(b_idx),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_publishes_discoverable_hardware() {
        let rack = FlacRack::boot(RackConfig::two_node_hccs()).unwrap();
        let table = rack.boot_table(1).unwrap();
        assert_eq!(table.nodes, 2);
        assert_eq!(table.total_cores(), 640);
    }

    #[test]
    fn shared_structures_are_rack_wide() {
        let rack = FlacRack::boot(RackConfig::small_test().with_global_mem(64 << 20)).unwrap();
        // Scheduler state written by node 0 visible on node 1.
        rack.scheduler()
            .task_started(&rack.sim().node(0), rack_sim::NodeId(1))
            .unwrap();
        assert_eq!(
            rack.scheduler()
                .load_of(&rack.sim().node(1), rack_sim::NodeId(1))
                .unwrap(),
            1
        );
    }

    #[test]
    fn channels_connect_nodes() {
        let rack = FlacRack::boot(RackConfig::small_test().with_global_mem(64 << 20)).unwrap();
        let (mut a, mut b) = rack.channel(0, 1).unwrap();
        a.send(b"booted").unwrap();
        assert_eq!(b.try_recv().unwrap(), b"booted");
    }
}
