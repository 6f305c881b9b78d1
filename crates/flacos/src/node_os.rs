//! The per-node OS instance.
//!
//! Each node runs its own [`NodeOs`] (paper §2.1: every node actively
//! executes an independent OS instance), but the instances *coordinate
//! through shared kernel state*: one file system, one scheduler, one
//! RPC context table, one health record — all in global memory. What
//! stays node-local is what the paper prescribes: the TLB, and reads of
//! the replicated file-system metadata and socket table, which each node
//! serves locally once it has replayed the log entries it missed.

use crate::process::Process;
use crate::rack::FlacRack;
use flacdk::reliability::checkpoint::CheckpointManager;
use flacos_fault::fault_box::FaultBoxBuilder;
use flacos_fault::redundancy::{Criticality, Protection, RedundancyPolicy};
use flacos_fs::memfs::MemFs;
use flacos_ipc::rpc::RpcRegistry;
use flacos_ipc::socket_meta::SocketRegistry;
use flacos_mem::fault::{PageFaultHandler, PagePlacement};
use flacos_mem::tlb::Tlb;
use rack_sim::{NodeCtx, NodeId, SimError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default software-TLB capacity per node.
const TLB_ENTRIES: usize = 1024;

/// One node's operating-system instance on a booted [`FlacRack`].
#[derive(Debug)]
pub struct NodeOs {
    rack: FlacRack,
    node: Arc<NodeCtx>,
    fs: MemFs,
    sockets: SocketRegistry,
    tlb: Tlb,
    fault_handler: PageFaultHandler,
    next_pid: AtomicU64,
}

impl NodeOs {
    pub(crate) fn start(rack: FlacRack, node: Arc<NodeCtx>) -> Self {
        let fs = MemFs::mount(rack.fs_shared().clone(), node.clone());
        let sockets = SocketRegistry::new(rack.socket_table().clone(), node.clone());
        let tlb = Tlb::new(node.clone(), TLB_ENTRIES);
        let fault_handler = PageFaultHandler::new(rack.frames().clone(), PagePlacement::Global);
        let next_pid = AtomicU64::new((node.id().0 as u64) << 32 | 1);
        NodeOs {
            rack,
            node,
            fs,
            sockets,
            tlb,
            fault_handler,
            next_pid,
        }
    }

    /// The node this instance runs on.
    pub fn node(&self) -> &Arc<NodeCtx> {
        &self.node
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// The booted rack.
    pub fn rack(&self) -> &FlacRack {
        &self.rack
    }

    /// This node's file-system mount.
    pub fn fs_mut(&mut self) -> &mut MemFs {
        &mut self.fs
    }

    /// This node's socket registry view.
    pub fn sockets_mut(&mut self) -> &mut SocketRegistry {
        &mut self.sockets
    }

    /// This node's page-fault handler.
    pub fn fault_handler(&self) -> &PageFaultHandler {
        &self.fault_handler
    }

    /// The shared RPC context table.
    pub fn rpc(&self) -> &Arc<RpcRegistry> {
        self.rack.rpc()
    }

    /// Publish a liveness heartbeat.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn heartbeat(&self) -> Result<(), SimError> {
        self.rack.monitor().beat(&self.node)
    }

    /// Housekeeping tick: heartbeat plus servicing any pending TLB
    /// shootdown requests from peer nodes. Returns how many shootdowns
    /// were serviced.
    ///
    /// # Errors
    ///
    /// Propagates memory and fabric errors.
    pub fn tick(&mut self) -> Result<usize, SimError> {
        self.heartbeat()?;
        self.tlb.service_shootdowns()
    }

    /// Spawn a process on this node with protection derived from its
    /// criticality, registering it with the rack scheduler.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn spawn(
        &mut self,
        heap_pages: usize,
        criticality: Criticality,
    ) -> Result<Process, SimError> {
        let pid = self.next_pid.fetch_add(1, Ordering::Relaxed);
        let fbox = FaultBoxBuilder::new(pid).heap_pages(heap_pages).build(
            &self.node,
            self.node.global(),
            self.rack.alloc().clone(),
            self.rack.frames(),
            self.rack.epochs().clone(),
        )?;
        let protection = Protection::new(
            RedundancyPolicy::for_criticality(criticality),
            CheckpointManager::new(self.rack.alloc().clone(), self.rack.epochs().clone()),
        );
        let mut process = Process::new(pid, fbox, protection);
        process.protect_now(&self.node)?;
        self.rack.scheduler().task_started(&self.node, self.id())?;
        Ok(process)
    }

    /// Retire a process: deregister from the scheduler and mark exited.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn reap(&mut self, process: &mut Process) -> Result<(), SimError> {
        self.rack
            .scheduler()
            .task_finished(&self.node, process.home())?;
        process.exit();
        Ok(())
    }

    /// Accept a process migrating in from another node: scheduler
    /// accounting moves with it.
    ///
    /// # Errors
    ///
    /// Propagates migration errors.
    pub fn adopt(&mut self, process: &mut Process, from: &NodeCtx) -> Result<(), SimError> {
        let old_home = process.home();
        process.migrate(from, &self.node)?;
        self.rack.scheduler().task_finished(&self.node, old_home)?;
        self.rack.scheduler().task_started(&self.node, self.id())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessState;
    use rack_sim::RackConfig;

    fn booted() -> FlacRack {
        FlacRack::boot(RackConfig::small_test().with_global_mem(128 << 20)).unwrap()
    }

    #[test]
    fn spawn_run_reap_lifecycle() {
        let rack = booted();
        let mut os0 = rack.node_os(0);
        let mut p = os0.spawn(2, Criticality::Low).unwrap();
        assert_eq!(p.state(), ProcessState::Ready);
        assert_eq!(rack.scheduler().load_of(os0.node(), os0.id()).unwrap(), 1);

        let result = p
            .run(os0.node(), |ctx, fbox| {
                fbox.space().write(ctx, fbox.heap_va(0), b"work")?;
                Ok(42)
            })
            .unwrap();
        assert_eq!(result, 42);
        assert_eq!(p.state(), ProcessState::Ready);

        os0.reap(&mut p).unwrap();
        assert_eq!(p.state(), ProcessState::Exited);
        assert_eq!(rack.scheduler().load_of(os0.node(), os0.id()).unwrap(), 0);
    }

    #[test]
    fn process_failure_then_recovery() {
        let rack = booted();
        let mut os0 = rack.node_os(0);
        let mut p = os0.spawn(1, Criticality::Medium).unwrap();
        p.run(os0.node(), |ctx, fbox| {
            fbox.space().write(ctx, fbox.heap_va(0), b"good")
        })
        .unwrap();
        p.protect_now(os0.node()).unwrap();

        let err = p.run(os0.node(), |_, _| -> Result<(), SimError> {
            Err(SimError::Protocol("app crashed".into()))
        });
        assert!(err.is_err());
        assert_eq!(p.state(), ProcessState::Failed);

        let restored = p.recover(os0.node()).unwrap();
        assert!(restored > 0);
        assert_eq!(p.state(), ProcessState::Ready);
        p.run(os0.node(), |ctx, fbox| {
            let mut buf = [0u8; 4];
            fbox.space().read(ctx, fbox.heap_va(0), &mut buf)?;
            assert_eq!(&buf, b"good");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn migration_between_node_os_instances() {
        let rack = booted();
        let mut os0 = rack.node_os(0);
        let mut os1 = rack.node_os(1);
        let mut p = os0.spawn(1, Criticality::Low).unwrap();
        p.run(os0.node(), |ctx, fbox| {
            fbox.space().write(ctx, fbox.heap_va(0), b"movable")
        })
        .unwrap();

        os1.adopt(&mut p, os0.node()).unwrap();
        assert_eq!(p.home(), os1.id());
        assert_eq!(rack.scheduler().load_of(os1.node(), os0.id()).unwrap(), 0);
        assert_eq!(rack.scheduler().load_of(os1.node(), os1.id()).unwrap(), 1);

        // Runs on the new home, same state.
        p.run(os1.node(), |ctx, fbox| {
            let mut buf = [0u8; 7];
            fbox.space().read(ctx, fbox.heap_va(0), &mut buf)?;
            assert_eq!(&buf, b"movable");
            Ok(())
        })
        .unwrap();
        // And refuses to run on the old home.
        assert!(p.run(os0.node(), |_, _| Ok(())).is_err());
    }

    #[test]
    fn heartbeats_flow_to_monitor() {
        let rack = booted();
        let os1 = rack.node_os(1);
        os1.heartbeat().unwrap();
        let health = rack
            .monitor()
            .health_of(&rack.sim().node(0), os1.id())
            .unwrap();
        assert_eq!(health, flacdk::reliability::monitor::NodeHealth::Healthy);
    }

    #[test]
    fn pids_are_node_disjoint() {
        let rack = booted();
        let mut os0 = rack.node_os(0);
        let mut os1 = rack.node_os(1);
        let p0 = os0.spawn(1, Criticality::Low).unwrap();
        let p1 = os1.spawn(1, Criticality::Low).unwrap();
        assert_ne!(p0.pid(), p1.pid());
        assert_eq!(p0.pid() >> 32, 0);
        assert_eq!(p1.pid() >> 32, 1);
    }
}
