//! End-to-end integration tests: the full FlacOS stack booted on a
//! simulated rack, exercised the way an operator would use it.

use flacos::prelude::*;

fn booted() -> FlacRack {
    FlacRack::boot(RackConfig::small_test().with_global_mem(128 << 20)).expect("boot")
}

#[test]
fn boot_table_matches_config() {
    let rack = FlacRack::boot(RackConfig::two_node_hccs()).unwrap();
    for node in 0..2 {
        let table = rack.boot_table(node).unwrap();
        assert_eq!(table.nodes, 2);
        assert_eq!(table.cores_per_node, 320);
        assert_eq!(table.total_cores(), 640, "the paper's 640-core rack");
    }
}

#[test]
fn shared_fs_namespace_is_single_system_image() {
    let rack = booted();
    let mut os0 = rack.node_os(0);
    let mut os1 = rack.node_os(1);

    os0.fs_mut().mkdir("/srv").unwrap();
    os0.fs_mut()
        .write_file("/srv/a.txt", b"from node 0")
        .unwrap();
    os1.fs_mut()
        .write_file("/srv/b.txt", b"from node 1")
        .unwrap();

    // Both nodes see the union, with identical inode numbers.
    assert_eq!(
        os0.fs_mut().readdir("/srv").unwrap(),
        vec!["a.txt", "b.txt"]
    );
    assert_eq!(
        os1.fs_mut().readdir("/srv").unwrap(),
        vec!["a.txt", "b.txt"]
    );
    assert_eq!(
        os0.fs_mut().resolve("/srv/b.txt").unwrap(),
        os1.fs_mut().resolve("/srv/b.txt").unwrap()
    );
    assert_eq!(
        os1.fs_mut().read_file("/srv/a.txt").unwrap(),
        b"from node 0"
    );
}

#[test]
fn page_cache_is_not_duplicated_per_node() {
    let rack = booted();
    let mut os0 = rack.node_os(0);
    let mut os1 = rack.node_os(1);

    let payload = vec![0x42u8; 40 * 4096];
    os0.fs_mut().write_file("/big.bin", &payload).unwrap();
    let before = rack.fs_shared().cache().resident_pages();

    // Node 1 reading the whole file must not add pages.
    assert_eq!(os1.fs_mut().read_file("/big.bin").unwrap(), payload);
    assert_eq!(rack.fs_shared().cache().resident_pages(), before);
}

#[test]
fn ipc_channel_through_the_os_facade() {
    let rack = booted();
    let (mut a, mut b) = rack.channel(0, 1).unwrap();
    for i in 0..64u32 {
        a.send(&i.to_le_bytes()).unwrap();
    }
    for i in 0..64u32 {
        assert_eq!(b.try_recv().unwrap(), i.to_le_bytes());
    }
}

#[test]
fn socket_registry_names_services_rack_wide() {
    let rack = booted();
    let mut os0 = rack.node_os(0);
    let mut os1 = rack.node_os(1);
    let here = os0.id();
    os0.sockets_mut()
        .bind(
            "kv-store",
            flacos_ipc::socket_meta::SocketAddr {
                node: here,
                channel: 5,
            },
        )
        .unwrap();
    let addr = os1
        .sockets_mut()
        .lookup("kv-store")
        .unwrap()
        .expect("bound");
    assert_eq!(addr.node, os0.id());
    assert_eq!(addr.channel, 5);
}

#[test]
fn migration_rpc_shares_code_contexts() {
    let rack = booted();
    let os0 = rack.node_os(0);
    let os1 = rack.node_os(1);
    let cell = flacdk::hw::GlobalCell::alloc(rack.sim().global(), 0).unwrap();
    os0.rpc()
        .register(
            os0.node(),
            9,
            std::sync::Arc::new(move |ctx: &rack_sim::NodeCtx, _: &[u8]| {
                Ok(cell.fetch_add(ctx, 1)?.to_le_bytes().to_vec())
            }),
        )
        .unwrap();
    // Both nodes invoke the same shared context; state is shared.
    os0.rpc().call(os0.node(), 9, b"").unwrap();
    let second = os1.rpc().call(os1.node(), 9, b"").unwrap();
    assert_eq!(u64::from_le_bytes(second.try_into().unwrap()), 1);
}

#[test]
fn scheduler_balances_spawns_across_node_os_instances() {
    let rack = booted();
    let mut os0 = rack.node_os(0);
    let mut os1 = rack.node_os(1);
    let placer = rack.sim().node(0);
    let mut procs = Vec::new();
    for _ in 0..6 {
        // An external placer would consult the shared scheduler; spawn
        // where it says.
        let target = rack
            .scheduler()
            .place(&placer, |id| rack.sim().is_alive(id))
            .unwrap();
        let p = if target == os0.id() {
            os0.spawn(1, Criticality::Low).unwrap()
        } else {
            os1.spawn(1, Criticality::Low).unwrap()
        };
        procs.push(p);
    }
    assert_eq!(rack.scheduler().load_of(os0.node(), os0.id()).unwrap(), 3);
    assert_eq!(rack.scheduler().load_of(os0.node(), os1.id()).unwrap(), 3);
}

#[test]
fn heartbeats_and_crash_detection() {
    let rack = booted();
    let os0 = rack.node_os(0);
    let os1 = rack.node_os(1);
    os0.heartbeat().unwrap();
    os1.heartbeat().unwrap();
    assert!(rack.monitor().suspects(os0.node()).unwrap().is_empty());

    rack.sim().faults().crash_node(os1.id(), 0);
    os0.node().charge(rack.monitor().timeout_ns() * 2);
    os0.heartbeat().unwrap(); // node 0 keeps beating; node 1 cannot
    assert_eq!(rack.monitor().suspects(os0.node()).unwrap(), vec![os1.id()]);
}

#[test]
fn process_lifecycle_with_recovery_after_poison() {
    let rack = booted();
    let mut os0 = rack.node_os(0);
    let mut p = os0.spawn(2, Criticality::Low).unwrap();
    p.run(os0.node(), |ctx, fbox| {
        fbox.space().write(ctx, fbox.heap_va(0), b"critical-data")
    })
    .unwrap();
    p.protect_now(os0.node()).unwrap();

    // Poison the process's first heap page.
    let objs = p.fault_box().memory_objects();
    let (_, heap, _) = objs.iter().find(|(id, _, _)| *id >= 2_000).unwrap();
    rack.sim()
        .faults()
        .poison_memory(rack.sim().global(), *heap, 64, 0);

    let restored = p.recover(os0.node()).unwrap();
    assert!(restored > 0);
    p.run(os0.node(), |ctx, fbox| {
        let mut buf = [0u8; 13];
        fbox.space().read(ctx, fbox.heap_va(0), &mut buf)?;
        assert_eq!(&buf, b"critical-data");
        Ok(())
    })
    .unwrap();
    os0.reap(&mut p).unwrap();
    assert_eq!(p.state(), ProcessState::Exited);
}
