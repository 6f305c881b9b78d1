//! Replicated socket metadata for naming and destination addressing.
//!
//! Paper §3.5 "Local data structures": *"Socket structures that maintain
//! communication metadata are stored in the local memory. FlacOS employs
//! the replication-based method to synchronize metadata across nodes to
//! achieve fast and reliable connection establishment and destination
//! addressing."*
//!
//! The name → endpoint table is the state of one
//! `SyncPolicy::Replicated` [`SyncCell`]: binds and unbinds are appended
//! to its shared op log, and a lookup is a node-local read once the
//! node has caught up with the log tail — connection establishment never
//! round-trips a directory server, and the table survives any single
//! node's failure (the log is in global memory).

use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{fnv1a, Decoder, Encoder};
use rack_sim::{GlobalMemory, NodeCtx, NodeId, SimError};
use std::collections::HashMap;
use std::sync::Arc;

const OP_BIND: u8 = 0;
const OP_UNBIND: u8 = 1;

/// Where a named service is reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketAddr {
    /// Node hosting the listener.
    pub node: NodeId,
    /// Channel/listener identifier on that node.
    pub channel: u64,
}

/// The rack-wide name table: name hash → address, folded from bind and
/// unbind ops.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SocketTable {
    map: HashMap<u64, SocketAddr>,
}

impl SyncState for SocketTable {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        match (d.u8(), d.u64()) {
            (Ok(OP_BIND), Ok(key)) => {
                if let (Ok(node), Ok(channel)) = (d.u64(), d.u64()) {
                    let node = NodeId(node as usize);
                    self.map.insert(key, SocketAddr { node, channel });
                }
            }
            (Ok(OP_UNBIND), Ok(key)) => {
                self.map.remove(&key);
            }
            _ => {}
        }
    }
}

/// A node's view of the rack-wide socket name table.
#[derive(Debug)]
pub struct SocketRegistry {
    table: Arc<SyncCell<SocketTable>>,
    node: Arc<NodeCtx>,
}

impl SocketRegistry {
    /// Allocate the shared table every node's registry views.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc_shared(
        global: &GlobalMemory,
        nodes: usize,
    ) -> Result<Arc<SyncCell<SocketTable>>, SimError> {
        SyncCell::alloc(
            global,
            "socket_table",
            SyncCellConfig::new(nodes, SyncPolicy::Replicated).with_log(1024, 128),
            SocketTable::default(),
        )
    }

    /// This node's registry view.
    pub fn new(table: Arc<SyncCell<SocketTable>>, node: Arc<NodeCtx>) -> Self {
        SocketRegistry { table, node }
    }

    /// Bind `name` to `addr` rack-wide.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn bind(&mut self, name: &str, addr: SocketAddr) -> Result<(), SimError> {
        let mut e = Encoder::new();
        e.put_u8(OP_BIND)
            .put_u64(fnv1a(name.as_bytes()))
            .put_u64(addr.node.0 as u64)
            .put_u64(addr.channel);
        self.table.update(&self.node, &e.into_vec()).map(drop)
    }

    /// Remove the binding for `name`.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn unbind(&mut self, name: &str) -> Result<(), SimError> {
        let mut e = Encoder::new();
        e.put_u8(OP_UNBIND).put_u64(fnv1a(name.as_bytes()));
        self.table.update(&self.node, &e.into_vec()).map(drop)
    }

    /// Resolve `name` to its current address (node-local after sync).
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn lookup(&mut self, name: &str) -> Result<Option<SocketAddr>, SimError> {
        let key = fnv1a(name.as_bytes());
        self.table.read(&self.node, |t| t.map.get(&key).copied())
    }

    /// Number of live bindings.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn len(&mut self) -> Result<usize, SimError> {
        self.table.read(&self.node, |t| t.map.len())
    }

    /// Whether no names are bound.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn is_empty(&mut self) -> Result<bool, SimError> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, SocketRegistry, SocketRegistry) {
        let rack = Rack::new(RackConfig::small_test());
        let shared = SocketRegistry::alloc_shared(rack.global(), rack.node_count()).unwrap();
        let r0 = SocketRegistry::new(shared.clone(), rack.node(0));
        let r1 = SocketRegistry::new(shared, rack.node(1));
        (rack, r0, r1)
    }

    #[test]
    fn bind_on_one_node_resolve_on_another() {
        let (_rack, mut r0, mut r1) = setup();
        let addr = SocketAddr {
            node: NodeId(0),
            channel: 42,
        };
        r0.bind("redis-server", addr).unwrap();
        assert_eq!(r1.lookup("redis-server").unwrap(), Some(addr));
        assert_eq!(r1.lookup("unknown").unwrap(), None);
    }

    #[test]
    fn rebind_moves_the_service() {
        let (_rack, mut r0, mut r1) = setup();
        r0.bind(
            "svc",
            SocketAddr {
                node: NodeId(0),
                channel: 1,
            },
        )
        .unwrap();
        // Service migrates to node 1.
        r1.bind(
            "svc",
            SocketAddr {
                node: NodeId(1),
                channel: 9,
            },
        )
        .unwrap();
        assert_eq!(
            r0.lookup("svc").unwrap(),
            Some(SocketAddr {
                node: NodeId(1),
                channel: 9
            })
        );
        assert_eq!(r0.len().unwrap(), 1);
    }

    #[test]
    fn unbind_removes_everywhere() {
        let (_rack, mut r0, mut r1) = setup();
        r0.bind(
            "tmp",
            SocketAddr {
                node: NodeId(0),
                channel: 1,
            },
        )
        .unwrap();
        r1.unbind("tmp").unwrap();
        assert_eq!(r0.lookup("tmp").unwrap(), None);
        assert!(r0.is_empty().unwrap());
    }

    #[test]
    fn lookups_after_sync_are_local() {
        let (rack, mut r0, mut r1) = setup();
        r0.bind(
            "a",
            SocketAddr {
                node: NodeId(0),
                channel: 1,
            },
        )
        .unwrap();
        r1.lookup("a").unwrap(); // catches up with the bind
        let n1 = rack.node(1);
        let before = n1.stats().snapshot();
        // Further lookups only probe the tail: no entry reads, no writes.
        r1.lookup("a").unwrap();
        let after = n1.stats().snapshot();
        assert_eq!(after.global_reads - before.global_reads, 1);
        assert_eq!(after.global_writes, before.global_writes);
    }

    #[test]
    fn bind_after_a_crashed_appenders_hole_resolves_on_the_other_node() {
        let rack = Rack::new(RackConfig::small_test());
        let table = SocketRegistry::alloc_shared(rack.global(), rack.node_count()).unwrap();
        let mut r0 = SocketRegistry::new(table.clone(), rack.node(0));
        let mut r1 = SocketRegistry::new(table.clone(), rack.node(1));
        let before = SocketAddr {
            node: NodeId(0),
            channel: 1,
        };
        r0.bind("before", before).unwrap();
        // Node 1 claims the next slot and dies before committing it: the
        // entry's flag word stays clear.
        let log = table.op_log();
        let idx = log
            .append_batch(&rack.node(1), &[b"never-committed"])
            .unwrap();
        let slot = log.base().offset(idx % log.capacity() * 128);
        rack.global().store_u64(slot, 0).unwrap();

        let after = SocketAddr {
            node: NodeId(0),
            channel: 2,
        };
        r0.bind("after", after).unwrap();
        assert_eq!(r1.lookup("after").unwrap(), Some(after));
        assert_eq!(r1.lookup("before").unwrap(), Some(before));
        assert_eq!(r1.len().unwrap(), 2);
    }
}
