//! The rack-level serverless architecture of §4: container startup over
//! the shared page cache and density-aware placement.
//!
//! ```text
//! cargo run -p flacos --example serverless_rack
//! ```

use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig};
use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacos_fs::block::BlockDevice;
use flacos_fs::memfs::{FsShared, MemFs};
use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use rack_sim::{Rack, RackConfig, SimError};
use serverless::image::ContainerImage;
use serverless::registry::{ImageRegistry, RegistryConfig};
use serverless::runtime::ContainerRuntime;
use serverless::scheduler::DensityScheduler;
use std::sync::Arc;

fn main() -> Result<(), SimError> {
    let rack = Rack::new(RackConfig::two_node_hccs());
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), rack.node_count())?;
    let fs = FsShared::alloc(
        rack.global(),
        rack.node_count(),
        alloc,
        epochs,
        RetireList::new(),
        Arc::new(BlockDevice::nvme(rack.global(), rack.node_count())?),
    )?;

    // A scaled synthetic "pytorch" image (1024 pages = 4 MiB here),
    // chunked by content hash and served from 4 backend shards whose
    // aggregate bandwidth keeps the paper's time decomposition.
    let registry = Arc::new(ImageRegistry::new(RegistryConfig::paper_calibrated()));
    let image = ContainerImage::synthetic("pytorch", 1024, 8, 7);
    let backends = Arc::new(ShardedBackends::uniform(
        4,
        BackendConfig::paper_calibrated(4, 1024),
    ));
    image.publish(&backends);
    registry.push(image);
    let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(rack.global().clone())));
    let store = ChunkStore::alloc(
        rack.global(),
        backends,
        dedup,
        StoreConfig::new(rack.node_count()),
    )?;

    let mut rt0 = ContainerRuntime::new(
        rack.node(0),
        MemFs::mount(fs.clone(), rack.node(0)),
        registry.clone(),
        store.clone(),
    );
    let mut rt1 = ContainerRuntime::new(
        rack.node(1),
        MemFs::mount(fs.clone(), rack.node(1)),
        registry,
        store.clone(),
    );

    println!("container startup (paper §4.2):");
    for (who, report) in [
        ("node0 cold          ", rt0.start_container("pytorch")?.1),
        ("node1 via shared pc ", rt1.start_container("pytorch")?.1),
        ("node1 hot           ", rt1.start_container("pytorch")?.1),
    ] {
        println!(
            "  {who} path={:<16?} total={:>9.3} s  (manifest {:.2} s, fetch {:.3} s, init {:.2} s)",
            report.path,
            report.total_ns as f64 / 1e9,
            report.manifest_ns as f64 / 1e9,
            report.fetch_ns as f64 / 1e9,
            report.init_ns as f64 / 1e9,
        );
    }
    let dedup_stats = store.dedup().stats();
    println!(
        "  chunk store holds {} deduped frames once, for both nodes ({} chunks shipped)\n",
        dedup_stats.unique_frames,
        store.backends().total_stats().chunks_shipped,
    );

    // Density placement.
    let mut sched = DensityScheduler::new(2, 8);
    for f in 0..12 {
        sched.place(f)?;
    }
    println!("density scheduling: 12 functions over 2 nodes x 8 slots");
    for n in 0..2 {
        let node = rack_sim::NodeId(n);
        println!(
            "  node{n}: {} instances, interference factor {:.2}",
            sched.density(node),
            sched.interference_factor(node)
        );
    }
    println!("  rack utilization {:.0}%", sched.utilization() * 100.0);
    Ok(())
}
