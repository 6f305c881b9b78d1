//! The local block layer: a conventional storage device behind the
//! shared page cache.
//!
//! Paper §3.4: *"the block layer is placed locally to be compatible with
//! traditional non-memory semantic storage devices."* The simulated
//! device stores whole pages keyed by page id and charges NVMe-flash-like
//! latencies, giving the writeback daemon and cold reads a realistic cost
//! to amortize.
//!
//! The page **content** is device media — only ever touched through the
//! device's own latency-charging request path, like a real controller's
//! DRAM, so it legitimately lives behind a host mutex. The **block map**
//! (which keys are present, how many writes were absorbed) is kernel
//! metadata that other nodes consult, so it lives in a
//! [`SyncCell`] — rarely contended, hence the [`SyncPolicy::Lock`]
//! baseline backend.

use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{Decoder, Encoder};
use flacos_mem::PAGE_SIZE;
use rack_sim::{GlobalMemory, NodeCtx, SimError};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Device I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Page reads served.
    pub reads: u64,
    /// Page writes absorbed.
    pub writes: u64,
}

/// The shared block map: which pages the device holds.
#[derive(Debug, Default, Clone)]
struct BlockMap {
    present: BTreeSet<u64>,
    writes: u64,
}

impl SyncState for BlockMap {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        if let Ok(key) = d.u64() {
            self.present.insert(key);
            self.writes += 1;
        }
    }
}

/// A page-granular simulated storage device.
#[derive(Debug)]
pub struct BlockDevice {
    #[expect(
        clippy::disallowed_types,
        reason = "device media: only reachable through this device's latency-charging \
                  request path, never via load/store"
    )]
    pages: rack_sim::sync::Mutex<HashMap<u64, Vec<u8>>>,
    map: Arc<SyncCell<BlockMap>>,
    read_ns: u64,
    write_ns: u64,
    reads: AtomicU64,
}

impl BlockDevice {
    /// NVMe-flash-like latency defaults (~20 µs read, ~60 µs program).
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn nvme(global: &GlobalMemory, nodes: usize) -> Result<Self, SimError> {
        Self::with_latency(global, nodes, 20_000, 60_000)
    }

    /// A device with explicit per-page latencies.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn with_latency(
        global: &GlobalMemory,
        nodes: usize,
        read_ns: u64,
        write_ns: u64,
    ) -> Result<Self, SimError> {
        Ok(BlockDevice {
            pages: Default::default(),
            map: SyncCell::alloc(
                global,
                "block_map",
                SyncCellConfig::new(nodes, SyncPolicy::Lock).with_log(8192, 48),
                BlockMap::default(),
            )?,
            read_ns,
            write_ns,
            reads: AtomicU64::new(0),
        })
    }

    /// Read the page stored under `key`, if present, charging device
    /// latency to `ctx`.
    pub fn read_page(&self, ctx: &NodeCtx, key: u64) -> Option<Vec<u8>> {
        ctx.charge(self.read_ns);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.pages.lock().get(&key).cloned()
    }

    /// Store one page under `key`, charging device latency to `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates block-map commit errors (the media is only updated
    /// after the map commit succeeds).
    ///
    /// # Panics
    ///
    /// Panics if `content` is not exactly one page.
    pub fn write_page(&self, ctx: &NodeCtx, key: u64, content: &[u8]) -> Result<(), SimError> {
        assert_eq!(content.len(), PAGE_SIZE, "block device stores whole pages");
        ctx.charge(self.write_ns);
        let mut e = Encoder::new();
        e.put_u64(key);
        self.map.update(ctx, &e.into_vec())?;
        self.map.gc(ctx)?;
        self.pages.lock().insert(key, content.to_vec());
        Ok(())
    }

    /// Whether a page exists under `key` (no latency; metadata check).
    pub fn contains(&self, key: u64) -> bool {
        self.map.peek(|m| m.present.contains(&key))
    }

    /// Pages stored.
    pub fn page_count(&self) -> usize {
        self.map.peek(|m| m.present.len())
    }

    /// I/O counters.
    pub fn stats(&self) -> BlockStats {
        BlockStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.map.peek(|m| m.writes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    #[test]
    fn rw_roundtrip_and_latency() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let dev = BlockDevice::with_latency(rack.global(), rack.node_count(), 100, 300).unwrap();
        let t0 = n0.clock().now();
        dev.write_page(&n0, 5, &vec![7u8; PAGE_SIZE]).unwrap();
        assert!(
            n0.clock().now() - t0 >= 300,
            "device program latency charged"
        );
        assert!(dev.contains(5));
        let t1 = n0.clock().now();
        assert_eq!(dev.read_page(&n0, 5).unwrap(), vec![7u8; PAGE_SIZE]);
        assert_eq!(n0.clock().now() - t1, 100);
        assert!(dev.read_page(&n0, 6).is_none());
        assert_eq!(
            dev.stats(),
            BlockStats {
                reads: 2,
                writes: 1
            }
        );
        assert_eq!(dev.page_count(), 1);
    }

    #[test]
    #[should_panic(expected = "whole pages")]
    fn partial_page_write_panics() {
        let rack = Rack::new(RackConfig::small_test());
        let dev = BlockDevice::nvme(rack.global(), rack.node_count()).unwrap();
        let _ = dev.write_page(&rack.node(0), 0, &[1, 2, 3]);
    }
}
