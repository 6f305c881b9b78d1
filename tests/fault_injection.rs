//! Fault-injection integration tests: memory poison, node crashes, and
//! link failures driven through the full stack, verifying the system
//! degrades and recovers the way §3.6 promises.

use flacos::prelude::*;
use flacos_ipc::netstack::{NetConfig, NetPair};
use rack_sim::NodeId;

fn booted() -> FlacRack {
    FlacRack::boot(RackConfig::small_test().with_global_mem(128 << 20)).expect("boot")
}

#[test]
fn node_crash_fails_operations_until_restart() {
    let rack = booted();
    let mut os1 = rack.node_os(1);
    os1.fs_mut().write_file("/x", b"1").unwrap();

    rack.sim().faults().crash_node(os1.id(), 0);
    assert!(
        os1.fs_mut().read_file("/x").is_err(),
        "dead node cannot do fs ops"
    );
    assert!(os1.heartbeat().is_err());

    rack.sim().faults().restart_node(os1.id(), 0);
    assert_eq!(
        os1.fs_mut().read_file("/x").unwrap(),
        b"1",
        "state survives in global memory"
    );
}

#[test]
fn surviving_node_reads_data_written_by_crashed_node() {
    // The point of the shared OS: one node's death does not take its
    // file data with it.
    let rack = booted();
    let mut os0 = rack.node_os(0);
    let mut os1 = rack.node_os(1);
    os1.fs_mut()
        .write_file("/will-survive", &vec![5u8; 10_000])
        .unwrap();
    rack.sim().faults().crash_node(os1.id(), 0);

    let data = os0.fs_mut().read_file("/will-survive").unwrap();
    assert_eq!(data, vec![5u8; 10_000]);
}

#[test]
fn link_failure_breaks_messaging_but_not_shared_memory() {
    let rack = booted();
    let (mut a, _b) = rack.channel(0, 1).unwrap();
    let n0 = rack.sim().node(0);
    let n1 = rack.sim().node(1);

    rack.sim().faults().fail_link(n0.id(), n1.id(), 0);
    // Message fabric path fails...
    assert!(matches!(
        n0.send(n1.id(), 42, vec![1]),
        Err(SimError::LinkDown { .. })
    ));
    // ...but load/store shared memory (a different fabric path in this
    // model) still works: the ring-based channel keeps flowing.
    a.send(b"still works").unwrap();

    rack.sim().faults().restore_link(n0.id(), n1.id(), 0);
    assert!(n0.send(n1.id(), 42, vec![1]).is_ok());
}

#[test]
fn poison_is_contained_to_one_process() {
    let rack = booted();
    let mut os0 = rack.node_os(0);
    let mut victim = os0.spawn(1, Criticality::Low).unwrap();
    let mut bystander = os0.spawn(1, Criticality::Low).unwrap();
    for (p, tag) in [
        (&mut victim, b"victim----"),
        (&mut bystander, b"bystander-"),
    ] {
        p.run(os0.node(), |ctx, fbox| {
            fbox.space().write(ctx, fbox.heap_va(0), tag)
        })
        .unwrap();
        p.protect_now(os0.node()).unwrap();
    }

    // Poison the victim's heap.
    let (_, heap, _) = victim
        .fault_box()
        .memory_objects()
        .into_iter()
        .find(|(id, _, _)| *id >= 2_000)
        .unwrap();
    rack.sim()
        .faults()
        .poison_memory(rack.sim().global(), heap, 64, 0);

    // The bystander keeps running untouched.
    bystander
        .run(os0.node(), |ctx, fbox| {
            let mut buf = [0u8; 10];
            fbox.space().read(ctx, fbox.heap_va(0), &mut buf)?;
            assert_eq!(&buf, b"bystander-");
            Ok(())
        })
        .unwrap();

    // The victim recovers from its checkpoint.
    victim.recover(os0.node()).unwrap();
    victim
        .run(os0.node(), |ctx, fbox| {
            let mut buf = [0u8; 10];
            fbox.space().read(ctx, fbox.heap_va(0), &mut buf)?;
            assert_eq!(&buf, b"victim----");
            Ok(())
        })
        .unwrap();
}

#[test]
fn evacuation_before_node_death() {
    let rack = booted();
    let mut os0 = rack.node_os(0);
    let mut os1 = rack.node_os(1);
    let mut p = os0.spawn(1, Criticality::Medium).unwrap();
    p.run(os0.node(), |ctx, fbox| {
        fbox.space().write(ctx, fbox.heap_va(0), b"moving out")
    })
    .unwrap();

    // Health monitoring says node 0 is failing: migrate, then crash it.
    os1.adopt(&mut p, os0.node()).unwrap();
    rack.sim().faults().crash_node(os0.id(), 0);

    p.run(os1.node(), |ctx, fbox| {
        let mut buf = [0u8; 10];
        fbox.space().read(ctx, fbox.heap_va(0), &mut buf)?;
        assert_eq!(&buf, b"moving out");
        Ok(())
    })
    .unwrap();
}

#[test]
fn netstack_fails_cleanly_when_peer_dies() {
    let rack = booted();
    let (mut a, _b) = NetPair::connect(
        rack.sim().node(0),
        rack.sim().node(1),
        NetConfig::ten_gbe(),
        0,
    );
    rack.sim().faults().crash_node(NodeId(1), 0);
    assert!(matches!(a.send(b"hello?"), Err(SimError::NodeDown { .. })));
}

#[test]
fn crash_during_writeback_loses_only_uncommitted_lines() {
    // A node dies between two cached writes: one was written back
    // (committed to global memory), the other was still dirty in its
    // private cache. The crash must not be able to commit the dirty
    // line, and recovery must see exactly the committed prefix.
    let rack = booted();
    let n0 = rack.sim().node(0);
    let n1 = rack.sim().node(1);
    let committed = rack.sim().global().alloc(64, 64).unwrap();
    let dirty = rack.sim().global().alloc(64, 64).unwrap();
    n1.store_uncached_u64(committed, 0xAAAA).unwrap();
    n1.store_uncached_u64(dirty, 0xBBBB).unwrap();

    // Victim: write both through the cache, but only write back one.
    n0.write_u64(committed, 0x1111).unwrap();
    n0.writeback(committed, 8);
    n0.write_u64(dirty, 0x2222).unwrap();
    rack.sim().faults().crash_node(n0.id(), 100);

    // The survivor sees the committed value and the dirty line's old
    // content — the crash cannot have committed what was never flushed.
    assert_eq!(n1.load_uncached_u64(committed).unwrap(), 0x1111);
    assert_eq!(n1.load_uncached_u64(dirty).unwrap(), 0xBBBB);

    // Restart = cold boot: the node invalidates its cache before
    // resuming, so its own dirty line is gone too.
    rack.sim().faults().restart_node(n0.id(), 200);
    n0.invalidate(committed, 8);
    n0.invalidate(dirty, 8);
    let mut buf = [0u8; 8];
    n0.read(dirty, &mut buf).unwrap();
    assert_eq!(
        u64::from_le_bytes(buf),
        0xBBBB,
        "uncommitted write did not survive the crash"
    );
    n0.read(committed, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 0x1111);
}

#[test]
fn rpc_times_out_backs_off_and_succeeds_after_link_restore() {
    // Acceptance: an in-flight RPC across a failed link observably
    // times out, retries with backoff, and succeeds once the link is
    // restored — executing the handler exactly once.
    use flacos_ipc::retry::BASE_BACKOFF_NS;
    use flacos_ipc::{MsgRpcClient, MsgRpcServer};

    let rack = booted();
    let faults = rack.sim().faults().clone();
    let n0 = rack.sim().node(0);
    let mut server = MsgRpcServer::new(rack.sim().node(1), 7);
    let mut client = MsgRpcClient::new(n0.clone(), NodeId(1), 7, 8);

    // Sever the reply path mid-call: the request arrives, the handler
    // runs, the reply is lost.
    faults.fail_link(NodeId(1), NodeId(0), 0);
    let before_ns = n0.clock().now();
    let mut handler = |req: &[u8]| {
        let mut r = b"echo:".to_vec();
        r.extend_from_slice(req);
        r
    };
    let out = client
        .call_with_retry(b"payload", &mut |attempt| {
            if attempt == 1 {
                faults.restore_link(NodeId(1), NodeId(0), 0);
            }
            server.serve_once(&mut handler).map(|_| ())
        })
        .unwrap();

    assert_eq!(out, b"echo:payload");
    assert_eq!(server.executed(), 1, "handler ran exactly once");
    assert_eq!(server.dup_suppressed(), 1, "retry answered from cache");
    assert_eq!(server.replies_lost(), 1, "first reply hit the dead link");
    let elapsed = n0.clock().now() - before_ns;
    assert!(
        elapsed >= client.timeout_ns + BASE_BACKOFF_NS,
        "observable timeout + backoff: waited {elapsed} ns"
    );
    // Both fault events made the injector's deterministic log.
    let log = rack.sim().faults().log_lines();
    assert!(log.iter().any(|l| l.contains("link-fail n1->n0")));
    assert!(log.iter().any(|l| l.contains("link-restore n1->n0")));
}

#[test]
fn deterministic_fault_schedules_replay() {
    // Same seed => same random poison address => identical outcome.
    let addr_of = |seed: u64| {
        let rack = rack_sim::Rack::new(RackConfig::small_test().with_seed(seed));
        rack.faults()
            .poison_random_word(rack.global(), rack_sim::GAddr(0), 65536, 0)
    };
    assert_eq!(addr_of(11), addr_of(11));
    assert_ne!(addr_of(11), addr_of(12));
}
