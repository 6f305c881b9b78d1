//! §4.2 container-startup experiment: cold vs. FlacOS vs. hot.
//!
//! The paper starts a 4 GB PyTorch container: node 1 cold-starts
//! (21.067 s), then node 2 starts the same image and is served by the
//! shared page cache (5.526 s); a hot start takes 3.02 s. We reproduce
//! the progression with a size-scaled synthetic image: the image is
//! 64 MiB of *real* pages chunked by content hash, and the aggregate
//! backend bandwidth is scaled by the same 64× factor, so the simulated
//! times land in the paper's regime while host memory stays bounded.
//! The cold path is the `flac-store` pipeline — claim the missing
//! chunks in the rack-wide index, fetch them in parallel slices across
//! [`SHARDS`] backend shards, intern into shared deduped frames — and
//! the shared path is pure chunk reads from global memory.

use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig};
use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacos_fs::block::BlockDevice;
use flacos_fs::memfs::{FsShared, MemFs};
use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use rack_sim::{Rack, RackConfig, RackReport};
use serverless::image::ContainerImage;
use serverless::registry::{ImageRegistry, RegistryConfig};
use serverless::runtime::{ContainerRuntime, StartupReport};
use std::sync::Arc;

/// Real pages in the scaled image (64 MiB).
pub const IMAGE_PAGES: u64 = 16 * 1024;
/// Scale factor from the paper's 4 GiB image to our 64 MiB one.
pub const SCALE: u64 = 64;
/// Backend shards serving the cold fetch (aggregate bandwidth is held
/// at the paper's single-registry rate regardless of the count).
pub const SHARDS: usize = 4;

/// The three startup measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupRows {
    /// Node 0's cold start.
    pub cold: StartupReport,
    /// Node 1's shared-store start.
    pub shared: StartupReport,
    /// Node 1's hot start.
    pub hot: StartupReport,
}

impl StartupRows {
    /// The paper's headline: cold / shared improvement factor.
    pub fn improvement(&self) -> f64 {
        self.cold.total_ns as f64 / self.shared.total_ns.max(1) as f64
    }
}

/// Run the cold/shared/hot progression for an image of `image_pages`
/// real pages, its backend bandwidth scaled down by `scale` (the table
/// runs [`IMAGE_PAGES`] at [`SCALE`]), with the rack-wide metrics of
/// the run: operation counts, latency histograms, and the `sync/*` +
/// `page_cache` counters that explain the shared-start win.
pub fn run(image_pages: u64, scale: u64) -> (StartupRows, RackReport) {
    let rack = Rack::new(RackConfig::two_node_hccs());
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), rack.node_count()).expect("epochs");
    let fs = FsShared::alloc(
        rack.global(),
        rack.node_count(),
        alloc,
        epochs,
        RetireList::new(),
        Arc::new(BlockDevice::nvme(rack.global(), rack.node_count()).expect("device")),
    )
    .expect("fs");

    let registry = Arc::new(ImageRegistry::new(RegistryConfig::paper_calibrated()));
    let image = ContainerImage::synthetic("pytorch", image_pages, 8, 7000);
    // Per-shard bandwidth = paper rate / (scale · shards): the shards'
    // aggregate matches the old single registry, so the paper's cold
    // decomposition is preserved — it is just served in parallel slices.
    let backends = Arc::new(ShardedBackends::uniform(
        SHARDS,
        BackendConfig::paper_calibrated(SHARDS, scale),
    ));
    image.publish(&backends);
    registry.push(image);
    let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(rack.global().clone())));
    let store = ChunkStore::alloc(
        rack.global(),
        backends,
        dedup,
        StoreConfig::new(rack.node_count()),
    )
    .expect("store");

    let mut rt0 = ContainerRuntime::new(
        rack.node(0),
        MemFs::mount(fs.clone(), rack.node(0)),
        registry.clone(),
        store.clone(),
    );
    let mut rt1 = ContainerRuntime::new(
        rack.node(1),
        MemFs::mount(fs, rack.node(1)),
        registry,
        store,
    );

    let (_, cold) = rt0.start_container("pytorch").expect("cold start");
    let (_, shared) = rt1.start_container("pytorch").expect("shared start");
    let (_, hot) = rt1.start_container("pytorch").expect("hot start");
    (StartupRows { cold, shared, hot }, rack.metrics_report())
}

/// Render the experiment as a table.
pub fn report(rows: &StartupRows) -> String {
    let t = |r: &StartupReport, label: &str| {
        vec![
            label.to_string(),
            crate::table::fmt_ns(r.manifest_ns),
            crate::table::fmt_ns(r.fetch_ns),
            crate::table::fmt_ns(r.init_ns),
            crate::table::fmt_ns(r.total_ns),
            format!("{}/{}", r.pages_downloaded, r.pages_from_cache),
        ]
    };
    format!(
        "Container startup (4 GiB image scaled to 64 MiB, time-preserving, {SHARDS} backend shards)\n\n{}\nFlacOS improvement over cold start: {:.1}x (paper: 3.8x)\n",
        crate::table::render(
            &[
                "path",
                "manifest",
                "image fetch",
                "init",
                "total",
                "chunks dl/cached"
            ],
            &[
                t(&rows.cold, "cold (node 0)"),
                t(&rows.shared, "FlacOS shared chunk store (node 1)"),
                t(&rows.hot, "hot (node 1)"),
            ],
        ),
        rows.improvement()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serverless::runtime::StartupPath;

    #[test]
    fn paper_progression_reproduced() {
        // A smaller image keeps the test fast; the scale factor keeps
        // the time decomposition identical.
        let (rows, _) = run(1024, 1024);
        assert_eq!(rows.cold.path, StartupPath::Cold);
        assert_eq!(rows.shared.path, StartupPath::SharedPageCache);
        assert_eq!(rows.hot.path, StartupPath::Hot);
        assert!(rows.hot.total_ns < rows.shared.total_ns);
        assert!(rows.shared.total_ns < rows.cold.total_ns);
        // The paper's ~3.8x cold-vs-FlacOS gap (band: 3x-5x).
        let x = rows.improvement();
        assert!(x > 3.0 && x < 5.0, "improvement {x:.2} out of band");
        // Chunk accounting: the cold start downloads every chunk, the
        // shared start none.
        assert_eq!(rows.cold.pages_downloaded, 1024);
        assert_eq!(rows.shared.pages_downloaded, 0);
        assert_eq!(rows.shared.pages_from_cache, 1024);
    }

    #[test]
    fn cold_total_is_the_runs_makespan() {
        // Node 0 only cold-starts and node 1's shared + hot starts end
        // sooner, so the run's makespan is the cold row's total.
        let (rows, metrics) = run(1024, 1024);
        assert_eq!(metrics.makespan_ns, rows.cold.total_ns);
    }

    #[test]
    fn report_mentions_all_paths() {
        let (rows, _) = run(256, 4096);
        let text = report(&rows);
        assert!(text.contains("cold (node 0)"));
        assert!(text.contains("FlacOS shared chunk store"));
        assert!(text.contains("hot (node 1)"));
        assert!(text.contains("chunks dl/cached"));
    }
}
