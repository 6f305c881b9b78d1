//! Cross-subsystem integration: interactions the paper's design depends
//! on — sync ↔ reliability co-design, fs ↔ memory dedup, IPC ↔ fault
//! boxes, applications over the full stack.

use flacdk::alloc::GlobalAllocator;
use flacdk::ds::radix::RadixTree;
use flacdk::reliability::checkpoint::CheckpointManager;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacos::prelude::*;
use flacos_fault::fault_box::FaultBoxBuilder;
use flacos_fault::redundancy::Protection;
use flacos_fs::journal;
use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::PAGE_SIZE;
use redis_mini::client::{request_stepped, RedisClient};
use redis_mini::resp::{Command, Reply};
use redis_mini::server::RedisServer;
use std::sync::Arc;

fn booted() -> FlacRack {
    FlacRack::boot(RackConfig::small_test().with_global_mem(128 << 20)).expect("boot")
}

#[test]
fn checkpoint_pins_protect_rcu_versions_under_churn() {
    // Reliability ↔ synchronization co-design: a checkpoint in progress
    // must keep old versions alive even while writers churn.
    let rack = booted();
    let n0 = rack.sim().node(0);
    let alloc = rack.alloc().clone();
    let epochs = rack.epochs().clone();
    let retired = RetireList::new();
    // One level: every update displaces exactly one published node.
    let tree = RadixTree::alloc(rack.sim().global(), 1).unwrap();
    tree.insert(&n0, &alloc, &epochs, &retired, 0, 0).unwrap();

    let (pin, _) = epochs.pin(&n0).unwrap();
    for i in 1..10u64 {
        tree.insert(&n0, &alloc, &epochs, &retired, 0, i).unwrap();
    }
    // All 9 displaced versions are protected by the pin.
    assert_eq!(retired.reclaim(&n0, &epochs, &alloc).unwrap(), 0);
    assert_eq!(retired.pending(), 9);
    epochs.unpin(pin);
    assert_eq!(retired.reclaim(&n0, &epochs, &alloc).unwrap(), 9);
}

#[test]
fn fs_journal_recovers_metadata_on_a_fresh_node() {
    let rack = booted();
    let mut os0 = rack.node_os(0);
    os0.fs_mut().mkdir("/data").unwrap();
    for i in 0..10 {
        os0.fs_mut()
            .write_file(&format!("/data/f{i}"), &[i as u8; 100])
            .unwrap();
    }
    os0.fs_mut().unlink("/data/f3").unwrap();

    // Node 1 never mounted; recover metadata purely from the journal.
    let (meta, replayed) = journal::recover_meta(&rack.sim().node(1), rack.fs_shared()).unwrap();
    assert!(replayed >= 21, "mkdir + 10x(create+set_size) + unlink");
    assert!(meta.resolve("/data/f3").is_none());
    assert!(meta.resolve("/data/f7").is_some());
}

#[test]
fn dedup_and_page_cache_compose_for_identical_content() {
    let rack = booted();
    let dedup = PageDeduper::new(FrameAllocator::new(rack.sim().global().clone()));
    let (n0, n1) = (rack.sim().node(0), rack.sim().node(1));

    // Two nodes intern the same container-image page.
    let page = vec![7u8; PAGE_SIZE];
    let f0 = dedup.intern(&n0, &page).unwrap();
    let f1 = dedup.intern(&n1, &page).unwrap();
    assert_eq!(f0, f1);
    assert_eq!(dedup.stats().bytes_saved, PAGE_SIZE as u64);

    // And the shared fs keeps file pages single-copy on top of that.
    let mut os0 = rack.node_os(0);
    let mut os1 = rack.node_os(1);
    os0.fs_mut().write_file("/img", &page).unwrap();
    os1.fs_mut().read_file("/img").unwrap();
    assert_eq!(rack.fs_shared().cache().resident_pages(), 1);
}

#[test]
fn redis_over_the_booted_rack_channel() {
    // The application path end-to-end *through the OS facade*: channel
    // from FlacRack, redis on top.
    let rack = booted();
    let (sep, cep) = rack.channel(0, 1).unwrap();
    let mut server = RedisServer::new(rack.sim().node(0), sep);
    let mut client = RedisClient::new(rack.sim().node(1), cep);

    for i in 0..20 {
        let key = format!("k{i}").into_bytes();
        let (reply, _) = request_stepped(
            &mut client,
            &mut server,
            &Command::Set {
                key: key.clone(),
                value: vec![i as u8; 128],
            },
        )
        .unwrap();
        assert_eq!(reply, Reply::Simple("OK".into()));
        let (reply, latency) =
            request_stepped(&mut client, &mut server, &Command::Get { key }).unwrap();
        assert_eq!(reply, Reply::Bulk(vec![i as u8; 128]));
        assert!(
            latency > 0 && latency < 1_000_000,
            "sane simulated latency: {latency}"
        );
    }
    assert_eq!(server.store().len(), 20);
}

#[test]
fn fault_box_covers_an_ipc_buffer() {
    // Communication buffers belong to the application's fault box
    // (§3.6 lists them explicitly); recovery restores them with the app.
    let rack = booted();
    let os0 = rack.node_os(0);

    // Attach a filled comm buffer region to a process's box.
    let buf_region = rack.sim().global().alloc(256, 64).unwrap();
    os0.node().write(buf_region, &[9u8; 256]).unwrap();
    os0.node().writeback(buf_region, 256);
    let (alloc, epochs) = (rack.alloc().clone(), rack.epochs().clone());
    let mut fbox = FaultBoxBuilder::new(1)
        .build(
            os0.node(),
            rack.sim().global(),
            alloc.clone(),
            rack.frames(),
            epochs.clone(),
        )
        .unwrap();
    fbox.register_comm_buffer(buf_region, 256);
    let policy = RedundancyPolicy::for_criticality(Criticality::Medium);
    let protection = Protection::new(policy, CheckpointManager::new(alloc, epochs));
    let mut p = Process::new(1, fbox, protection);
    p.protect_now(os0.node()).unwrap();

    // The buffer gets poisoned; recovery brings it back with the app.
    rack.sim()
        .faults()
        .poison_memory(rack.sim().global(), buf_region, 64, 0);
    p.recover(os0.node()).unwrap();
    let mut buf = [0u8; 256];
    os0.node().invalidate(buf_region, 256);
    os0.node().read(buf_region, &mut buf).unwrap();
    assert_eq!(buf, [9u8; 256]);
}

#[test]
fn tlb_shootdown_after_shared_mapping_change() {
    // flacos-mem TLBs + page table + rack messaging working together.
    use flacos_mem::page_table::Pte;
    use flacos_mem::tlb::{shootdown_stepped_range, Tlb};
    use flacos_mem::PhysFrame;

    let rack = booted();
    let alloc = GlobalAllocator::new(rack.sim().global().clone());
    let epochs = EpochManager::alloc(rack.sim().global(), rack.sim().node_count()).unwrap();
    let space =
        flacos_mem::AddressSpace::alloc(1, rack.sim().global(), alloc, epochs, RetireList::new())
            .unwrap();
    let frames = FrameAllocator::new(rack.sim().global().clone());
    let n0 = rack.sim().node(0);

    let f1 = frames.alloc(&n0).unwrap();
    space
        .map(&n0, 7, Pte::new(PhysFrame::Global(f1), true))
        .unwrap();
    let pte = space
        .translate(&n0, flacos_mem::VirtAddr::from_vpn(7))
        .unwrap()
        .unwrap();

    let mut tlbs: Vec<Tlb> = (0..rack.sim().node_count())
        .map(|i| Tlb::new(rack.sim().node(i), 64))
        .collect();
    for t in tlbs.iter_mut() {
        t.fill(1, 7, pte);
    }

    // Remap, then shoot down the stale translations everywhere.
    let f2 = frames.alloc(&n0).unwrap();
    space
        .map(&n0, 7, Pte::new(PhysFrame::Global(f2), true))
        .unwrap();
    shootdown_stepped_range(&mut tlbs, 0, 1, 7, 1).unwrap();
    for t in tlbs.iter_mut() {
        assert_eq!(t.lookup(1, 7), None, "no stale translation survives");
    }
}

#[test]
fn checkpoint_manager_composes_with_process_heaps() {
    let rack = booted();
    let cm = CheckpointManager::new(rack.alloc().clone(), rack.epochs().clone());
    let mut os0 = rack.node_os(0);
    let p = os0.spawn(1, Criticality::Low).unwrap();
    let objs = p.fault_box().memory_objects();
    let ckpt = cm.capture(os0.node(), &objs).unwrap();
    assert_eq!(ckpt.len(), objs.len());
    assert_eq!(ckpt.bytes(), p.fault_box().state_bytes());
    cm.discard(os0.node(), ckpt);
}

#[test]
fn serverless_runtime_runs_on_the_booted_fs() {
    use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig};
    use flacos_mem::dedup::PageDeduper;
    use flacos_mem::fault::FrameAllocator;
    use serverless::image::ContainerImage;
    use serverless::registry::{ImageRegistry, RegistryConfig};
    use serverless::runtime::{ContainerRuntime, StartupPath};

    let rack = booted();
    let registry = Arc::new(ImageRegistry::new(RegistryConfig { manifest_ns: 1000 }));
    let image = ContainerImage::synthetic("app", 32, 2, 5);
    let backends = Arc::new(ShardedBackends::uniform(
        2,
        BackendConfig::paper_calibrated(2, 4096),
    ));
    image.publish(&backends);
    registry.push(image);
    let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(
        rack.sim().global().clone(),
    )));
    let store = ChunkStore::alloc(
        rack.sim().global(),
        backends,
        dedup,
        StoreConfig::new(rack.sim().node_count()),
    )
    .unwrap();

    let mut rt0 = ContainerRuntime::new(
        rack.sim().node(0),
        flacos_fs::memfs::MemFs::mount(rack.fs_shared().clone(), rack.sim().node(0)),
        registry.clone(),
        store.clone(),
    );
    let mut rt1 = ContainerRuntime::new(
        rack.sim().node(1),
        flacos_fs::memfs::MemFs::mount(rack.fs_shared().clone(), rack.sim().node(1)),
        registry,
        store,
    );
    let (_, cold) = rt0.start_container("app").unwrap();
    let (_, shared) = rt1.start_container("app").unwrap();
    assert_eq!(cold.path, StartupPath::Cold);
    assert_eq!(shared.path, StartupPath::SharedPageCache);
    assert!(shared.total_ns < cold.total_ns);
    assert_eq!(cold.pages_downloaded, 32);
    assert_eq!(shared.pages_from_cache, 32);
}
