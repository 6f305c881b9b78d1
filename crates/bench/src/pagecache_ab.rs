//! Ablation A2 — shared page cache vs. per-node page caches.
//!
//! The paper's §3.4 claim: sharing the page cache (a) removes redundant
//! copies of the same file pages across nodes, and (b) the saved memory
//! becomes extra cache capacity. We open the same file set from every
//! node and compare total cache memory and mean access latency against
//! the conventional design where each node caches privately.

use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacos_fs::block::BlockDevice;
use flacos_fs::memfs::{FsShared, MemFs};
use flacos_mem::PAGE_SIZE;
use rack_sim::{Rack, RackConfig, RackReport};
use std::sync::Arc;

/// Result of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCacheRow {
    /// Nodes reading the file set.
    pub nodes: usize,
    /// File-set size in bytes.
    pub fileset_bytes: u64,
    /// Cache memory consumed by the shared design.
    pub shared_bytes: u64,
    /// Cache memory the per-node design would consume (nodes × set).
    pub per_node_bytes: u64,
    /// Mean warm read latency of one page through the shared cache, ns.
    pub shared_read_ns: u64,
}

impl PageCacheRow {
    /// Memory saved by sharing.
    pub fn saved_bytes(&self) -> u64 {
        self.per_node_bytes - self.shared_bytes
    }

    /// Capacity multiplier: how much more the rack can cache in the
    /// same footprint.
    pub fn capacity_gain(&self) -> f64 {
        self.per_node_bytes as f64 / self.shared_bytes.max(1) as f64
    }
}

/// Run with `nodes` nodes reading `files` files of `pages_per_file`
/// pages each, with the rack's metrics.
pub fn run_cell(nodes: usize, files: usize, pages_per_file: u64) -> (PageCacheRow, RackReport) {
    let rack = Rack::new(RackConfig::n_node(nodes).with_global_mem(256 << 20));
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), nodes).expect("epochs");
    let fs = FsShared::alloc(
        rack.global(),
        nodes,
        alloc,
        epochs,
        RetireList::new(),
        Arc::new(BlockDevice::nvme(rack.global(), nodes).expect("device")),
    )
    .expect("fs");

    // Node 0 writes the file set (e.g. container images all nodes need).
    let mut fs0 = MemFs::mount(fs.clone(), rack.node(0));
    let content = vec![0xC3u8; (pages_per_file as usize) * PAGE_SIZE];
    for f in 0..files {
        fs0.write_file(&format!("/shared-{f}"), &content)
            .expect("write");
    }

    // Every node reads every file; pages are served from the single
    // shared copy.
    let mut total_read_ns = 0u64;
    let mut reads = 0u64;
    for n in 0..nodes {
        let mut fsn = MemFs::mount(fs.clone(), rack.node(n));
        for f in 0..files {
            let node = rack.node(n);
            let t0 = node.clock().now();
            let data = fsn.read_file(&format!("/shared-{f}")).expect("read");
            total_read_ns += node.clock().now() - t0;
            reads += pages_per_file;
            assert_eq!(data.len(), content.len());
        }
    }

    let fileset_bytes = (files as u64) * pages_per_file * PAGE_SIZE as u64;
    let row = PageCacheRow {
        nodes,
        fileset_bytes,
        shared_bytes: fs.cache().memory_bytes() as u64,
        per_node_bytes: fileset_bytes * nodes as u64,
        shared_read_ns: total_read_ns / reads.max(1),
    };
    (row, rack.metrics_report())
}

/// Run the node-count sweep, with the rack-wide metrics of its 2-node
/// cell: operation counts, latency histograms, and the `page_cache`
/// hit/miss counters that explain the capacity gain.
pub fn run() -> (Vec<PageCacheRow>, RackReport) {
    crate::sweep([2usize, 4, 8], 2, |n| run_cell(n, 4, 64))
}

/// Render the sweep.
pub fn report(rows: &[PageCacheRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                crate::table::fmt_bytes(r.fileset_bytes),
                crate::table::fmt_bytes(r.shared_bytes),
                crate::table::fmt_bytes(r.per_node_bytes),
                format!("{:.1}x", r.capacity_gain()),
                crate::table::fmt_ns(r.shared_read_ns),
            ]
        })
        .collect();
    format!(
        "Ablation A2: shared page cache vs per-node caches\n\n{}",
        crate::table::render(
            &[
                "nodes",
                "file set",
                "shared cache",
                "per-node caches",
                "capacity gain",
                "page read"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_saves_linear_memory() {
        let (row, _) = run_cell(4, 2, 16);
        // Shared design holds ~one copy; per-node holds four.
        assert!(row.shared_bytes <= row.fileset_bytes + (64 * PAGE_SIZE as u64));
        assert_eq!(row.per_node_bytes, row.fileset_bytes * 4);
        assert!(row.capacity_gain() > 3.0);
        assert!(row.saved_bytes() > 0);
    }

    #[test]
    fn warm_reads_are_fast() {
        let (row, _) = run_cell(2, 1, 16);
        // A warm shared-cache page read is a lookup + burst fill, well
        // under 100 µs.
        assert!(
            row.shared_read_ns < 100_000,
            "page read {} ns",
            row.shared_read_ns
        );
    }
}
