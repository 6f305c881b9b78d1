//! Replication-based shared hash table.
//!
//! [`ReplicatedKv`] is a `u64 -> bytes` map that replays a shared op log
//! into per-node `HashMap` replicas: reads are local, writes cost a log
//! append, and total memory is `nodes ×` the map size. A write-heavy or
//! capacity-bound table wants delegation instead, which is a
//! [`crate::sync::SyncCell`] under [`crate::sync::SyncPolicy::Delegated`].

use crate::sync::replicated::{Replica, ReplicatedHandle, ReplicatedLog};
use crate::wire::{Decoder, Encoder};
use rack_sim::{GlobalMemory, NodeCtx, SimError};
use std::collections::HashMap;
use std::sync::Arc;

const OP_PUT: u8 = 0;
const OP_DEL: u8 = 1;

/// Per-node replica state of a [`ReplicatedKv`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KvReplica {
    map: HashMap<u64, Vec<u8>>,
}

impl Replica for KvReplica {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        match d.u8() {
            Ok(OP_PUT) => {
                if let (Ok(k), Ok(v)) = (d.u64(), d.bytes()) {
                    self.map.insert(k, v.to_vec());
                }
            }
            Ok(OP_DEL) => {
                if let Ok(k) = d.u64() {
                    self.map.remove(&k);
                }
            }
            _ => {}
        }
    }
}

/// A node's handle on a replication-based shared map.
#[derive(Debug)]
pub struct ReplicatedKv {
    handle: ReplicatedHandle<KvReplica>,
}

impl ReplicatedKv {
    /// Allocate the shared log. `entry_size` bounds `16 + 13 + value`
    /// bytes per op, so size it for the largest value you will store.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc_shared(
        global: &GlobalMemory,
        nodes: usize,
        log_capacity: usize,
        entry_size: usize,
    ) -> Result<Arc<ReplicatedLog>, SimError> {
        ReplicatedLog::alloc(global, nodes, log_capacity, entry_size)
    }

    /// This node's handle.
    pub fn new(shared: Arc<ReplicatedLog>, node: Arc<NodeCtx>) -> Self {
        ReplicatedKv {
            handle: ReplicatedHandle::new(shared, node, KvReplica::default()),
        }
    }

    /// Insert or overwrite `key`.
    ///
    /// # Errors
    ///
    /// Propagates log-full and memory errors.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<(), SimError> {
        let mut e = Encoder::new();
        e.put_u8(OP_PUT).put_u64(key).put_bytes(value);
        self.handle.execute(&e.into_vec())
    }

    /// Remove `key`.
    ///
    /// # Errors
    ///
    /// Propagates log-full and memory errors.
    pub fn del(&mut self, key: u64) -> Result<(), SimError> {
        let mut e = Encoder::new();
        e.put_u8(OP_DEL).put_u64(key);
        self.handle.execute(&e.into_vec())
    }

    /// Look up `key` after syncing with the log.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, SimError> {
        self.handle.read(|r| r.map.get(&key).cloned())
    }

    /// Entry count after syncing.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn len(&mut self) -> Result<usize, SimError> {
        self.handle.read(|r| r.map.len())
    }

    /// Whether the map is empty after syncing.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn is_empty(&mut self) -> Result<bool, SimError> {
        Ok(self.len()? == 0)
    }

    /// Shared log (for GC and recovery integration).
    pub fn shared(&self) -> &Arc<ReplicatedLog> {
        self.handle.shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    #[test]
    fn replicated_map_basic_ops_converge() {
        let rack = Rack::new(RackConfig::small_test());
        let shared = ReplicatedKv::alloc_shared(rack.global(), 2, 128, 128).unwrap();
        let mut m0 = ReplicatedKv::new(shared.clone(), rack.node(0));
        let mut m1 = ReplicatedKv::new(shared, rack.node(1));

        m0.put(1, b"one").unwrap();
        m1.put(2, b"two").unwrap();
        m0.del(1).unwrap();
        assert_eq!(m1.get(1).unwrap(), None);
        assert_eq!(m0.get(2).unwrap(), Some(b"two".to_vec()));
        assert_eq!(m1.len().unwrap(), 1);
        assert!(!m0.is_empty().unwrap());
    }

    #[test]
    fn replicated_map_overwrite() {
        let rack = Rack::new(RackConfig::small_test());
        let shared = ReplicatedKv::alloc_shared(rack.global(), 1, 64, 128).unwrap();
        let mut m = ReplicatedKv::new(shared, rack.node(0));
        m.put(9, b"a").unwrap();
        m.put(9, b"b").unwrap();
        assert_eq!(m.get(9).unwrap(), Some(b"b".to_vec()));
        assert_eq!(m.len().unwrap(), 1);
    }
}
