//! Inter-node messaging over the memory interconnect.
//!
//! Besides load/store access to global memory, nodes need a doorbell-style
//! notification path (the paper's §5 calls the missing hardware "rack-wide
//! interrupt"; current fabrics approximate it with polled mailboxes). This
//! module provides timestamped, ported message queues between nodes:
//! delegation-based synchronization, TLB shootdown, and the RPC layer all
//! ride on it.
//!
//! Virtual-time semantics: a message departs at the sender's clock, takes
//! `hops * hop_ns + bytes * transfer` to arrive, and the receiver's clock
//! advances to at least the arrival time when it consumes the message.

use crate::error::SimError;
use crate::fault::{FaultInjector, NodeLiveness};
use crate::latency::LatencyModel;
use crate::sync::Mutex;
use crate::topology::{NodeId, RackTopology};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A message in flight or delivered between nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Destination port (application-level demultiplexing).
    pub port: u16,
    /// Simulated departure time (sender clock).
    pub depart_ns: u64,
    /// Simulated arrival time (depart + fabric latency).
    pub arrive_ns: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// One node's inbox: the ported FIFO queues plus a lock-free count of
/// queued messages across all ports. The count lets the common poll loop
/// (`pending` then `try_recv`, spinning while empty) return without
/// taking the queue mutex at all — previously every empty poll paid a
/// lock + hash lookup, and peek-then-pop paid the lock twice.
#[derive(Debug, Default)]
struct NodeInbox {
    ports: Mutex<HashMap<u16, VecDeque<Message>>>,
    /// Messages queued across every port. Incremented/decremented while
    /// the `ports` lock is held; read without it by the empty fast path.
    queued: AtomicU64,
}

/// The rack's message fabric.
#[derive(Debug)]
pub struct Interconnect {
    topology: RackTopology,
    latency: LatencyModel,
    liveness: Arc<NodeLiveness>,
    /// Also where a node's burnt crash fuse is logged.
    pub(crate) faults: Arc<FaultInjector>,
    /// Per-node, per-port FIFO queues.
    queues: Vec<NodeInbox>,
}

impl Interconnect {
    pub(crate) fn new(
        topology: RackTopology,
        latency: LatencyModel,
        liveness: Arc<NodeLiveness>,
        faults: Arc<FaultInjector>,
    ) -> Self {
        let queues = (0..topology.nodes())
            .map(|_| NodeInbox::default())
            .collect();
        Interconnect {
            topology,
            latency,
            liveness,
            faults,
            queues,
        }
    }

    /// Send `payload` from `from` to `to`'s `port`, departing at `now_ns`.
    /// Returns the simulated arrival time.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is down or the link is severed.
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        port: u16,
        payload: Vec<u8>,
        now_ns: u64,
    ) -> Result<u64, SimError> {
        if !self.liveness.is_alive(from) {
            return Err(SimError::NodeDown { node: from });
        }
        if !self.liveness.is_alive(to) {
            return Err(SimError::NodeDown { node: to });
        }
        if self.faults.link_down(from, to) {
            return Err(SimError::LinkDown { from, to });
        }
        let inbox = self
            .queues
            .get(to.0)
            .ok_or(SimError::NodeDown { node: to })?;
        let hops = self.topology.hops(from, to);
        let bw = self.topology.link_bw_divisor(from, to);
        let arrive_ns = now_ns + self.latency.message_ns_over(hops, payload.len(), bw);
        let msg = Message {
            from,
            to,
            port,
            depart_ns: now_ns,
            arrive_ns,
            payload,
        };
        let mut ports = inbox.ports.lock();
        ports.entry(port).or_default().push_back(msg);
        // Release pairs with the fast path's Acquire: a receiver that
        // observed this send's effects sees a non-zero count.
        inbox.queued.fetch_add(1, Ordering::Release);
        drop(ports);
        Ok(arrive_ns)
    }

    /// Non-blocking receive of the oldest message on `node`'s `port`.
    ///
    /// When the node's inbox is empty — the common case in the RPC and
    /// netstack poll loops — this returns without taking the queue lock
    /// or allocating.
    ///
    /// # Errors
    ///
    /// [`SimError::WouldBlock`] when the port queue is empty;
    /// [`SimError::NodeDown`] when the receiving node has crashed.
    pub fn try_recv(&self, node: NodeId, port: u16) -> Result<Message, SimError> {
        if !self.liveness.is_alive(node) {
            return Err(SimError::NodeDown { node });
        }
        let inbox = self.queues.get(node.0).ok_or(SimError::NodeDown { node })?;
        if inbox.queued.load(Ordering::Acquire) == 0 {
            return Err(SimError::WouldBlock);
        }
        let mut ports = inbox.ports.lock();
        let msg = ports
            .get_mut(&port)
            .and_then(|q| q.pop_front())
            .ok_or(SimError::WouldBlock)?;
        inbox.queued.fetch_sub(1, Ordering::Release);
        Ok(msg)
    }

    /// Number of queued messages on `node`'s `port`. Lock-free when the
    /// node's inbox is empty.
    pub fn pending(&self, node: NodeId, port: u16) -> usize {
        self.queues
            .get(node.0)
            .map(|inbox| {
                if inbox.queued.load(Ordering::Acquire) == 0 {
                    return 0;
                }
                inbox.ports.lock().get(&port).map(|d| d.len()).unwrap_or(0)
            })
            .unwrap_or(0)
    }

    /// Drop all queued messages for a node (used when it crashes).
    pub fn purge_node(&self, node: NodeId) {
        if let Some(inbox) = self.queues.get(node.0) {
            let mut ports = inbox.ports.lock();
            ports.clear();
            inbox.queued.store(0, Ordering::Release);
        }
    }

    /// The topology this fabric connects.
    pub fn topology(&self) -> &RackTopology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(nodes: usize) -> (Interconnect, Arc<FaultInjector>) {
        let topo = RackTopology::switched(nodes, 4);
        let liveness = NodeLiveness::new(nodes);
        let faults = Arc::new(FaultInjector::new(7, liveness.clone()));
        (
            Interconnect::new(topo, LatencyModel::hccs(), liveness, faults.clone()),
            faults,
        )
    }

    #[test]
    fn message_arrival_time_includes_fabric_latency() {
        let (ic, _) = fabric(2);
        let lat = LatencyModel::hccs();
        let arrive = ic
            .send(NodeId(0), NodeId(1), 0, vec![0u8; 1000], 100)
            .unwrap();
        assert_eq!(arrive, 100 + lat.message_ns(2, 1000));
        let msg = ic.try_recv(NodeId(1), 0).unwrap();
        assert_eq!(msg.arrive_ns, arrive);
        assert_eq!(msg.payload.len(), 1000);
    }

    #[test]
    fn ports_demultiplex() {
        let (ic, _) = fabric(2);
        ic.send(NodeId(0), NodeId(1), 1, vec![1], 0).unwrap();
        ic.send(NodeId(0), NodeId(1), 2, vec![2], 0).unwrap();
        assert!(matches!(
            ic.try_recv(NodeId(1), 3),
            Err(SimError::WouldBlock)
        ));
        assert_eq!(ic.try_recv(NodeId(1), 2).unwrap().payload, vec![2]);
        assert_eq!(ic.try_recv(NodeId(1), 1).unwrap().payload, vec![1]);
    }

    #[test]
    fn fifo_order_per_port() {
        let (ic, _) = fabric(2);
        for i in 0..5u8 {
            ic.send(NodeId(0), NodeId(1), 0, vec![i], i as u64).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(ic.try_recv(NodeId(1), 0).unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn dead_endpoints_and_links_fail() {
        let (ic, faults) = fabric(3);
        faults.crash_node(NodeId(2), 0);
        assert!(matches!(
            ic.send(NodeId(0), NodeId(2), 0, vec![], 0),
            Err(SimError::NodeDown { .. })
        ));
        assert!(matches!(
            ic.try_recv(NodeId(2), 0),
            Err(SimError::NodeDown { .. })
        ));
        faults.fail_link(NodeId(0), NodeId(1), 0);
        assert!(matches!(
            ic.send(NodeId(0), NodeId(1), 0, vec![], 0),
            Err(SimError::LinkDown { .. })
        ));
        // Reverse direction still up.
        assert!(ic.send(NodeId(1), NodeId(0), 0, vec![], 0).is_ok());
    }

    #[test]
    fn empty_fast_path_keeps_queued_count_consistent() {
        let (ic, _) = fabric(2);
        // Empty inbox: the lock-free fast path answers both calls.
        assert!(matches!(
            ic.try_recv(NodeId(1), 0),
            Err(SimError::WouldBlock)
        ));
        assert_eq!(ic.pending(NodeId(1), 0), 0);
        ic.send(NodeId(0), NodeId(1), 1, vec![1], 0).unwrap();
        ic.send(NodeId(0), NodeId(1), 2, vec![2], 0).unwrap();
        // Wrong port while the inbox is non-empty: slow path, still
        // WouldBlock, and the count must not be decremented by the miss.
        assert!(matches!(
            ic.try_recv(NodeId(1), 9),
            Err(SimError::WouldBlock)
        ));
        assert_eq!(ic.pending(NodeId(1), 1), 1);
        ic.try_recv(NodeId(1), 1).unwrap();
        ic.try_recv(NodeId(1), 2).unwrap();
        // Fully drained: back on the fast path for every port.
        assert_eq!(ic.pending(NodeId(1), 1), 0);
        assert_eq!(ic.pending(NodeId(1), 2), 0);
        assert!(matches!(
            ic.try_recv(NodeId(1), 2),
            Err(SimError::WouldBlock)
        ));
    }

    #[test]
    fn purge_discards_pending() {
        let (ic, _) = fabric(2);
        ic.send(NodeId(0), NodeId(1), 0, vec![9], 0).unwrap();
        assert_eq!(ic.pending(NodeId(1), 0), 1);
        ic.purge_node(NodeId(1));
        assert_eq!(ic.pending(NodeId(1), 0), 0);
    }
}
