//! Property-style tests on core data-structure invariants, checked
//! against reference models under pseudo-random operation sequences.
//!
//! Previously these ran under `proptest`; the hermetic (offline,
//! std-only) build replaces it with a hand-rolled deterministic case
//! generator seeded from [`rack_sim::SplitMix64`]. Every case derives
//! from a fixed seed plus the case index, so failures reproduce exactly
//! and print the `(seed, case)` pair that triggered them.

use flacdk::alloc::GlobalAllocator;
use flacdk::ds::radix::RadixTree;
use flacdk::ds::ringbuf::SpscRing;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacdk::wire::{Decoder, Encoder};
use flacos_ipc::socket_meta::{SocketAddr, SocketRegistry};
use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::tlb::{shootdown_stepped_range, Tlb};
use flacos_mem::vma::{Vma, VmaSet};
use flacos_mem::VirtAddr;
use flacos_mem::PAGE_SIZE;
use flacos_mem::{AddressSpace, PageSize, PhysFrame, Pte, HUGE_PAGE_SIZE, PAGES_PER_HUGE};
use flacos_tier::migrate::split_region;
use flacos_tier::Migration;
use rack_sim::cache::{CacheConfig, CacheStats, NodeCache};
use rack_sim::{
    GAddr, GlobalMemory, LatencyModel, NodeId, Rack, RackConfig, SimError, SplitMix64, LINE_SIZE,
};
use redis_mini::resp::{Command, Reply};
use std::collections::{HashMap, VecDeque};

/// Base seed for every generator in this file. Bump to explore a fresh
/// schedule; keep fixed for run-to-run reproducibility.
const SEED: u64 = 0xF1AC_0001;

/// Number of generated cases per property (proptest ran 64).
const CASES: u64 = 64;

/// Run `body` once per case with an independently seeded generator,
/// labelling panics with the reproducing `(seed, case)` pair.
fn check<F: Fn(&mut SplitMix64)>(property: &str, body: F) {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SEED ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property `{property}` failed at seed={SEED:#x} case={case}");
            std::panic::resume_unwind(panic);
        }
    }
}

fn small_rack() -> Rack {
    Rack::new(RackConfig::small_test().with_global_mem(32 << 20))
}

#[test]
fn global_memory_byte_rw_roundtrip() {
    check("global_memory_byte_rw_roundtrip", |rng| {
        let offset = rng.gen_index(1000);
        let len = rng.gen_index(300);
        let data = rng.gen_bytes(len);
        let rack = small_rack();
        let g = rack.global();
        g.write_bytes(GAddr(offset as u64), &data).unwrap();
        let mut out = vec![0u8; data.len()];
        g.read_bytes(GAddr(offset as u64), &mut out).unwrap();
        assert_eq!(out, data);
    });
}

#[test]
fn ring_matches_fifo_model() {
    check("ring_matches_fifo_model", |rng| {
        let rack = small_rack();
        let ring = SpscRing::alloc(rack.global(), 16, 64).unwrap();
        let (producer, consumer) = (rack.node(0), rack.node(1));
        let mut model: VecDeque<Vec<u8>> = VecDeque::new();

        let ops = 1 + rng.gen_index(59);
        for _ in 0..ops {
            if rng.gen_bool() {
                let len = rng.gen_index(40);
                let payload = rng.gen_bytes(len);
                match ring.push(&producer, &payload) {
                    Ok(()) => model.push_back(payload),
                    Err(SimError::WouldBlock) => assert_eq!(model.len(), 16),
                    Err(e) => panic!("push: {e}"),
                }
            } else {
                match ring.pop(&consumer) {
                    Ok(got) => assert_eq!(Some(got), model.pop_front()),
                    Err(SimError::WouldBlock) => assert!(model.is_empty()),
                    Err(e) => panic!("pop: {e}"),
                }
            }
        }
        assert_eq!(ring.len(&producer).unwrap() as usize, model.len());
    });
}

#[test]
fn socket_registry_converges_and_matches_model() {
    check("socket_registry_converges_and_matches_model", |rng| {
        let rack = small_rack();
        let table = SocketRegistry::alloc_shared(rack.global(), 2).unwrap();
        let mut reg0 = SocketRegistry::new(table.clone(), rack.node(0));
        let mut reg1 = SocketRegistry::new(table, rack.node(1));
        let mut model: HashMap<String, SocketAddr> = HashMap::new();

        let ops = 1 + rng.gen_index(49);
        for i in 0..ops {
            let is_bind = rng.gen_bool();
            let name = format!("svc-{}", rng.gen_range(0..16));
            let addr = SocketAddr {
                node: NodeId(rng.gen_index(2)),
                channel: rng.next_u64(),
            };
            let reg = if i % 2 == 0 { &mut reg0 } else { &mut reg1 };
            if is_bind {
                reg.bind(&name, addr).unwrap();
                model.insert(name, addr);
            } else {
                reg.unbind(&name).unwrap();
                model.remove(&name);
            }
        }
        for key in 0..16u64 {
            let name = format!("svc-{key}");
            assert_eq!(reg0.lookup(&name).unwrap(), model.get(&name).copied());
            assert_eq!(reg1.lookup(&name).unwrap(), model.get(&name).copied());
        }
        assert_eq!(reg0.len().unwrap(), model.len());
        assert_eq!(reg1.len().unwrap(), model.len());
    });
}

#[test]
fn radix_matches_map_model() {
    check("radix_matches_map_model", |rng| {
        let rack = small_rack();
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), 2).unwrap();
        let retired = RetireList::new();
        let tree = RadixTree::alloc(rack.global(), 2).unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let n0 = rack.node(0);

        let ops = 1 + rng.gen_index(59);
        for _ in 0..ops {
            let insert = rng.gen_bool();
            let key = rng.gen_range(0..512);
            let value = rng.next_u64();
            if insert {
                let prev = tree
                    .insert(&n0, &alloc, &epochs, &retired, key, value)
                    .unwrap();
                assert_eq!(prev, model.insert(key, value));
            } else {
                let prev = tree.remove(&n0, &alloc, &epochs, &retired, key).unwrap();
                assert_eq!(prev, model.remove(&key));
            }
            retired.reclaim(&n0, &epochs, &alloc).unwrap();
        }
        let guard = epochs.handle(rack.node(1)).read_lock().unwrap();
        for key in 0..512u64 {
            assert_eq!(
                tree.get(&rack.node(1), &guard, key).unwrap(),
                model.get(&key).copied()
            );
        }
    });
}

#[test]
fn resp_command_roundtrip() {
    check("resp_command_roundtrip", |rng| {
        let klen = 1 + rng.gen_index(31);
        let key = rng.gen_bytes(klen);
        let vlen = rng.gen_index(256);
        let value = rng.gen_bytes(vlen);
        let cmd = match rng.gen_index(7) {
            0 => Command::Set { key, value },
            1 => Command::Get { key },
            2 => Command::Del { key },
            3 => Command::Incr { key },
            4 => Command::Exists { key },
            5 => Command::Append { key, value },
            _ => Command::Ping,
        };
        let wire = cmd.encode();
        let (parsed, consumed) = Command::parse(&wire).unwrap();
        assert_eq!(parsed, cmd);
        assert_eq!(consumed, wire.len());
    });
}

#[test]
fn resp_reply_roundtrip() {
    check("resp_reply_roundtrip", |rng| {
        let dlen = rng.gen_index(256);
        let data = rng.gen_bytes(dlen);
        for reply in [
            Reply::Bulk(data.clone()),
            Reply::Null,
            Reply::Integer(data.len() as i64),
        ] {
            let wire = reply.encode();
            let (parsed, consumed) = Reply::parse(&wire).unwrap();
            assert_eq!(parsed, reply);
            assert_eq!(consumed, wire.len());
        }
    });
}

#[test]
fn resp_parser_never_panics_on_garbage() {
    check("resp_parser_never_panics_on_garbage", |rng| {
        let blen = rng.gen_index(64);
        let bytes = rng.gen_bytes(blen);
        let _ = Command::parse(&bytes);
        let _ = Reply::parse(&bytes);
    });
}

#[test]
fn wire_codec_roundtrip() {
    check("wire_codec_roundtrip", |rng| {
        let a = rng.next_u64();
        let b = (rng.next_u64() >> 32) as u32;
        let slen = rng.gen_index(64);
        let s = rng.gen_bytes(slen);
        let mut e = Encoder::new();
        e.put_u64(a).put_u32(b).put_bytes(&s);
        let buf = e.into_vec();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u64().unwrap(), a);
        assert_eq!(d.u32().unwrap(), b);
        assert_eq!(d.bytes().unwrap(), &s[..]);
        assert_eq!(d.remaining(), 0);
    });
}

#[test]
fn vma_set_never_holds_overlaps() {
    check("vma_set_never_holds_overlaps", |rng| {
        let mut set = VmaSet::new();
        let areas = 1 + rng.gen_index(19);
        for _ in 0..areas {
            let start = rng.gen_range(0..100);
            let len = rng.gen_range(1..20);
            let vma = Vma {
                start: VirtAddr(start * 0x1000),
                end: VirtAddr((start + len) * 0x1000),
                writable: true,
                tag: start,
                page_size: flacos_mem::PageSize::Base,
            };
            let _ = set.insert(vma); // overlaps are rejected, that's fine
        }
        // Invariant: whatever was accepted is pairwise disjoint.
        let all: Vec<&Vma> = set.iter().collect();
        for (i, a) in all.iter().enumerate() {
            for b in all.iter().skip(i + 1) {
                assert!(a.end.0 <= b.start.0 || b.end.0 <= a.start.0);
            }
        }
        // And find() agrees with contains().
        for vma in &all {
            assert_eq!(set.find(vma.start).map(|v| v.tag), Some(vma.tag));
        }
    });
}

#[test]
fn node_replicated_recovery_drain_matches_a_per_entry_reference() {
    use flacdk::sync::{
        CombineWindow, SyncCell, SyncCellConfig, SyncPolicy, SyncState, FRAME_BYTES,
    };
    use rack_sim::NodeId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Records every applied op, so loss, duplication and reordering all
    /// show.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Ledger(Vec<Vec<u8>>);
    impl SyncState for Ledger {
        fn apply(&mut self, op: &[u8]) {
            self.0.push(op.to_vec());
        }
    }

    /// The cell's `[node u32][seq u32]` entry frame: dedup key and op.
    fn unframe(payload: &[u8]) -> Option<(u64, &[u8])> {
        let (frame, op) = (payload.get(..FRAME_BYTES)?, &payload[FRAME_BYTES..]);
        let word = |at: usize| u64::from(u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()));
        Some(((word(0) << 32) | word(4), op))
    }

    /// A slot as its publisher polls it: consumed at an index, pending,
    /// or free (never published, or aborted).
    fn poll(cell: &SyncCell<Ledger>, node: &rack_sim::NodeCtx) -> Option<Option<u64>> {
        cell.nr_poll(node).ok()
    }

    const NODES: usize = 5;
    /// A pending publication: publishing node, dedup keys, raw ops.
    type Publication = (usize, Vec<u64>, Vec<Vec<u8>>);
    // Cases per crash window whose pending publications spilled past
    // their 48-byte header.
    let spilled: [AtomicUsize; 4] = Default::default();

    // Property: after any crash window — a combiner dead after its batch
    // append (publications committed but still pending), a combiner dead
    // before it (nothing committed), a dead publisher that may hold a
    // flushed publication, or one that surely does — with holes left by
    // crashed appenders, malformed entries, a wrapped ring and a
    // collected head, and with 48-byte entries (publications fit their
    // header line) or 128-byte entries and long ops (publications spill
    // into the overflow area), `on_node_crash` (one range pass per walk)
    // leaves exactly the state, fold position, hole count, publication
    // marks and log tail that the per-entry algorithm computes with the
    // bounds-checked `SharedOpLog::read`, one entry at a time, and no
    // header `PENDING`.
    check(
        "node_replicated_recovery_drain_matches_a_per_entry_reference",
        |rng| {
            let rack = Rack::new(RackConfig::n_node(NODES).with_global_mem(1 << 20));
            let capacity = 24 + rng.gen_index(9); // 24..=32
            let entry = [48, 128][rng.gen_index(2)];
            let cell = SyncCell::alloc(
                rack.global(),
                "prop_recover",
                SyncCellConfig::new(NODES, SyncPolicy::NodeReplicated).with_log(capacity, entry),
                Ledger::default(),
            )
            .unwrap();
            let log = cell.op_log();
            let dead = rng.gen_index(NODES);
            let recoverer = (dead + 1 + rng.gen_index(NODES - 1)) % NODES;
            let observer = (0..NODES).find(|&n| n != dead && n != recoverer).unwrap();
            let obs = rack.node(observer);
            // Up to 48 bytes of padding with 128-byte entries: two framed
            // ops of a publication then reach 120 of its 176 packed bytes.
            let pad = |rng: &mut SplitMix64| if entry > 48 { rng.gen_index(41) } else { 0 };
            let mut seq = 0u32;
            let mut next_op = |node: usize, pad: usize| {
                seq += 1;
                let mut e = Encoder::new();
                e.put_u32(node as u32).put_u32(seq);
                let mut op = e.into_vec();
                op.resize(8 + pad, 0x5A);
                op
            };
            let window = |obs: &rack_sim::NodeCtx| (log.head(obs).unwrap(), log.tail(obs).unwrap());

            // History: updates from every node, laps of the ring, GC.
            for _ in 0..rng.gen_index(3 * capacity) {
                let (head, tail) = window(&obs);
                if tail - head + 1 >= capacity as u64 || rng.gen_ratio(0.1) {
                    cell.gc(&rack.node(0)).unwrap();
                    continue;
                }
                let node = rng.gen_index(NODES);
                let op = next_op(node, pad(rng));
                cell.update(&rack.node(node), &op).unwrap();
            }
            // Room for the crash window: two malformed entries, a dead
            // combiner's batch (at most two ops per node) and a re-append
            // of as many.
            let (head, tail) = window(&obs);
            if tail - head + (2 + 4 * NODES) as u64 > capacity as u64 {
                cell.gc(&rack.node(0)).unwrap();
            }

            // Appenders that left a malformed (frame-less) entry.
            let malformed = |rng: &mut SplitMix64| {
                if rng.gen_ratio(0.3) {
                    let len = rng.gen_index(FRAME_BYTES);
                    log.append_batch(&rack.node(observer), &[rng.gen_bytes(len)])
                        .unwrap();
                }
            };
            malformed(rng);

            // Publications, then the crash window.
            let mut pending: Vec<Publication> = Vec::new();
            let mut publish =
                |rng: &mut SplitMix64, node: usize, pending: &mut Vec<Publication>| {
                    let ops: Vec<Vec<u8>> = (0..1 + rng.gen_index(2))
                        .map(|_| next_op(node, pad(rng)))
                        .collect();
                    let refs: Vec<&[u8]> = ops.iter().map(Vec::as_slice).collect();
                    let keys = cell.nr_publish_batch(&rack.node(node), &refs).unwrap();
                    pending.push((node, keys, ops));
                };
            let window_kind = rng.gen_index(4);
            for node in 0..NODES {
                // Window 3's dead publisher publishes below.
                if (node != dead || window_kind != 3) && rng.gen_ratio(0.5) {
                    publish(rng, node, &mut pending);
                }
            }
            let packed = |ops: &[Vec<u8>]| {
                ops.iter()
                    .map(|op| 4 + FRAME_BYTES + op.len())
                    .sum::<usize>()
            };
            // The dead combiner's own mark, polled while it is alive.
            let dead_mark = poll(&cell, &rack.node(dead));
            match window_kind {
                0 | 1 => {
                    // The dying combine burns on its first header mark
                    // (window 0, with a batch to append) or else on the
                    // append's first tail load (the release when nothing
                    // is pending).
                    let pubs = pending.len() as u64;
                    let ops: u64 = pending.iter().map(|p| p.2.len() as u64).sum();
                    let spill = pending.iter().any(|p| packed(&p.2) > 48);
                    let past_append = window_kind == 0 && ops > 0;
                    let fuse = if past_append {
                        CombineWindow::AfterAppend
                    } else {
                        CombineWindow::BeforeAppend
                    };
                    let tail = window(&obs).1;
                    let nodes: Vec<NodeId> = pending.iter().map(|p| NodeId(p.0)).collect();
                    let victim = rack.node(dead);
                    let before = victim.stats().snapshot().fabric_ops();
                    rack.faults()
                        .arm_crash(NodeId(dead), fuse.fuse_op(pubs, ops, spill));
                    let combine = cell.nr_combine(&victim);
                    assert!(matches!(combine, Err(SimError::NodeDown { .. })));
                    let after = victim.stats().snapshot().fabric_ops();
                    let want_ran = fuse.issued_before(pubs, ops, spill);
                    let ran = [0, 1, 2].map(|i| after[i] - before[i]);
                    assert_eq!(ran, want_ran, "window {window_kind}: ops before the fuse");
                    let landed = if past_append { ops } else { 0 };
                    assert_eq!(window(&obs).1, tail + landed, "window {window_kind}");
                    assert_eq!(cell.pending_publishers(&obs).unwrap(), nodes);
                }
                2 => {}
                _ => {
                    // The dead node dies holding one flushed publication.
                    let mut e = Encoder::new();
                    e.put_u32(dead as u32).put_u32(u32::MAX);
                    let mut op = e.into_vec();
                    op.resize(8 + pad(rng), 0x5A);
                    let key = cell.nr_publish(&rack.node(dead), &op).unwrap();
                    pending.push((dead, vec![key], vec![op]));
                }
            }
            // Survivors without a pending publication publish again; the
            // dead combiner never saw these.
            for node in 0..NODES {
                if node != dead && !pending.iter().any(|p| p.0 == node) && rng.gen_ratio(0.5) {
                    publish(rng, node, &mut pending);
                }
            }
            pending.sort_by_key(|p| p.0);
            if pending.iter().any(|p| packed(&p.2) > 48) {
                spilled[window_kind].fetch_add(1, Ordering::Relaxed);
            }
            malformed(rng);
            // Crashed appenders: claimed slots whose commit flag never
            // landed.
            let (head, tail) = window(&obs);
            for idx in head..tail {
                if rng.gen_ratio(0.15) {
                    let slot = (idx % capacity as u64) * entry as u64;
                    rack.global().store_u64(log.base().offset(slot), 0).unwrap();
                }
            }
            let marks_before: Vec<_> = (0..NODES)
                .map(|n| {
                    if n == dead && window_kind < 2 {
                        dead_mark
                    } else {
                        poll(&cell, &rack.node(n))
                    }
                })
                .collect();
            if window_kind >= 2 {
                rack.faults().crash_node(NodeId(dead), 0);
            }

            // The reference, entry by entry through the checked reader.
            let read = |idx: u64| log.read(&obs, idx).unwrap();
            let (applied, mut holes) = cell.fold_position();
            let mut state = cell.peek(Ledger::clone);
            for idx in applied..tail {
                match read(idx).as_deref().and_then(unframe) {
                    Some((_, op)) => state.apply(op),
                    None => holes += 1,
                }
            }
            let mut marks = marks_before;
            let mut fresh_at = tail;
            let mut fresh_ops = Vec::new();
            for (node, keys, ops) in &pending {
                let found = (head..tail).find(|&idx| {
                    read(idx).as_deref().and_then(unframe).map(|(k, _)| k) == Some(keys[0])
                });
                match found {
                    Some(idx) => marks[*node] = Some(Some(idx)),
                    None => {
                        marks[*node] = Some(Some(fresh_at));
                        fresh_at += ops.len() as u64;
                        fresh_ops.extend(ops.iter().cloned());
                    }
                }
            }
            for op in &fresh_ops {
                state.apply(op);
            }
            let applied = fresh_at;

            // The range drain under test.
            let reelected = cell
                .on_node_crash(&rack.node(recoverer), NodeId(dead))
                .unwrap();
            rack.faults().restart_node(NodeId(dead), 0);
            let ctx = format!(
                "window {window_kind}, dead {dead}, entry {entry}, capacity {capacity}, \
                 log [{head}, {tail})"
            );
            assert_eq!(reelected, window_kind < 2, "{ctx}");
            assert_eq!(cell.peek(Ledger::clone), state, "state: {ctx}");
            assert_eq!(cell.fold_position(), (applied, holes), "fold: {ctx}");
            assert_eq!(cell.committed(&obs).unwrap(), fresh_at, "tail: {ctx}");
            let marks_after: Vec<_> = (0..NODES).map(|n| poll(&cell, &rack.node(n))).collect();
            assert_eq!(marks_after, marks, "publication marks: {ctx}");
            assert_eq!(cell.pending_publishers(&obs).unwrap(), [], "pending: {ctx}");
        },
    );
    for (window, cases) in spilled.iter().enumerate() {
        assert!(
            cases.load(Ordering::Relaxed) > 0,
            "window {window} never spilled"
        );
    }
}

/// 48-byte entries share cache lines, so a replica that stopped at a
/// mid-line entry holds the head of the next slot in its cache. The next
/// catch-up's invalidate must cover that partial first line or the
/// replica reads the stale (empty) flag of an entry appended since.
#[test]
fn replica_caught_up_to_mid_line_sees_later_appends_into_that_line() {
    use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};

    #[derive(Debug, Default, Clone, PartialEq)]
    struct Seen(Vec<u8>);
    impl SyncState for Seen {
        fn apply(&mut self, op: &[u8]) {
            self.0.extend_from_slice(op);
        }
    }

    let rack = Rack::new(RackConfig::n_node(4).with_global_mem(1 << 20));
    let cell = SyncCell::alloc(
        rack.global(),
        "mid_line",
        SyncCellConfig::new(4, SyncPolicy::NodeReplicated).with_log(64, 48),
        Seen::default(),
    )
    .unwrap();
    let reader = rack.node(3);
    // Materialize the replica at the empty log so it replays from there.
    assert_eq!(cell.sync_replica(&reader).unwrap(), 0);
    // Entries 0..3 end at byte 144: mid-way through the third line.
    for i in 0..3u8 {
        cell.update(&rack.node(0), &[i]).unwrap();
    }
    assert_eq!(cell.sync_replica(&reader).unwrap(), 3);
    // Entry 3 starts in that same line, written by another node.
    cell.update(&rack.node(1), &[3]).unwrap();
    cell.update(&rack.node(2), &[4]).unwrap();
    assert_eq!(cell.sync_replica(&reader).unwrap(), 5);
    assert_eq!(
        cell.read_local(&reader, |s| s.0.clone()).unwrap(),
        vec![0, 1, 2, 3, 4]
    );
}

#[test]
fn allocator_live_objects_never_overlap() {
    check("allocator_live_objects_never_overlap", |rng| {
        let rack = small_rack();
        let alloc = GlobalAllocator::new(rack.global().clone());
        let node = rack.node(0);
        let mut live: Vec<(u64, usize)> = Vec::new(); // (addr, class size)

        let ops = 1 + rng.gen_index(79);
        for _ in 0..ops {
            let do_alloc = rng.gen_bool();
            let len = 1 + rng.gen_index(499);
            if do_alloc || live.is_empty() {
                let addr = alloc.alloc(&node, len).unwrap();
                let class = GlobalAllocator::size_class(len);
                // Must not overlap any live object.
                for (base, sz) in &live {
                    let disjoint = addr.0 + class as u64 <= *base || base + *sz as u64 <= addr.0;
                    assert!(disjoint, "{addr:?}+{class} overlaps {base:#x}+{sz}");
                }
                live.push((addr.0, class));
            } else {
                let (base, sz) = live.swap_remove(len % live.len());
                alloc.free(&node, GAddr(base), sz);
            }
        }
    });
}

#[test]
fn dedup_refcounts_match_a_reference_model() {
    check("dedup_refcounts_match_a_reference_model", |rng| {
        let rack = small_rack();
        let dedup = PageDeduper::new(FrameAllocator::new(rack.global().clone()));
        let node = rack.node(0);
        // content id -> (frame, model refcount)
        let mut model: HashMap<u8, (GAddr, u64)> = HashMap::new();

        let ops = 1 + rng.gen_index(39);
        for _ in 0..ops {
            let intern = rng.gen_bool();
            let content_id = rng.gen_index(4) as u8;
            if intern {
                let frame = dedup.intern(&node, &vec![content_id; PAGE_SIZE]).unwrap();
                let entry = model.entry(content_id).or_insert((frame, 0));
                assert_eq!(entry.0, frame, "same content, same frame");
                entry.1 += 1;
            } else if let Some((frame, count)) = model.get_mut(&content_id) {
                dedup.release(&node, *frame).unwrap();
                *count -= 1;
                if *count == 0 {
                    let id = content_id;
                    model.remove(&id);
                }
            }
            for (frame, count) in model.values() {
                assert_eq!(dedup.refcount(*frame), *count);
            }
        }
        assert_eq!(dedup.stats().unique_frames as usize, model.len());
    });
}

#[test]
fn chunk_index_claim_sets_match_a_full_map_scan() {
    use flac_store::index::{abort_op, claim_op, commit_op};
    use flac_store::{ChunkIndexState, ChunkState};
    use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};

    const NODES: u32 = 4;
    const HASHES: u64 = 32;

    /// The test-only oracle: `node`'s in-flight claims counted by a scan
    /// of every hash, the definition the per-node claim sets must match.
    fn scan(s: &ChunkIndexState, node: u32) -> usize {
        (0..HASHES)
            .filter(|&h| s.get(h) == Some(ChunkState::Fetching { node }))
            .count()
    }
    fn agrees(s: &ChunkIndexState) {
        for n in 0..NODES {
            assert_eq!(s.fetching_of(n), scan(s, n), "node {n}");
        }
        let total: usize = (0..NODES).map(|n| scan(s, n)).sum();
        assert_eq!(s.fetching_count(), total);
    }

    check("chunk_index_claim_sets_match_a_full_map_scan", |rng| {
        let rack = Rack::new(RackConfig::n_node(NODES as usize).with_global_mem(4 << 20));
        let cell = SyncCell::alloc(
            rack.global(),
            "chunk_index_prop",
            SyncCellConfig::new(NODES as usize, SyncPolicy::NodeReplicated).with_log(128, 192),
            ChunkIndexState::default(),
        )
        .unwrap();
        let mut state = ChunkIndexState::default();
        let ops = 1 + rng.gen_index(100);
        for _ in 0..ops {
            let node = rng.gen_index(NODES as usize) as u32;
            let hashes: Vec<u64> = (0..1 + rng.gen_index(4))
                .map(|_| rng.gen_range(0..HASHES))
                .collect();
            let op = match rng.gen_index(5) {
                0 | 1 => claim_op(node, &hashes),
                // Commits name any hash, so late and stale commits
                // (against absent, foreign or present entries) happen.
                2 | 3 => {
                    let entries: Vec<_> = hashes
                        .iter()
                        .map(|&h| (h, GAddr(h * PAGE_SIZE as u64), PAGE_SIZE as u32))
                        .collect();
                    commit_op(node, &entries)
                }
                _ => abort_op(node),
            };
            let (aborted, claimed) = (state.aborted_claims, scan(&state, node));
            state.apply(&op);
            if op == abort_op(node) {
                assert_eq!(state.aborted_claims - aborted, claimed as u64);
                assert_eq!(state.fetching_of(node), 0);
            }
            agrees(&state);
            cell.update(&rack.node(node as usize), &op).unwrap();
            cell.peek(|c| {
                for n in 0..NODES {
                    assert_eq!(c.fetching_of(n), state.fetching_of(n));
                }
            });
        }
        let (replayed, _) = cell
            .replay(&rack.node(0), ChunkIndexState::default())
            .unwrap();
        agrees(&replayed);
        for n in 0..NODES {
            assert_eq!(replayed.fetching_of(n), state.fetching_of(n), "node {n}");
        }
        assert_eq!(replayed.fetching_count(), state.fetching_count());
        assert_eq!(replayed.present_snapshot(), state.present_snapshot());
        assert_eq!(replayed.aborted_claims, state.aborted_claims);
    });
}

#[test]
fn radix_reads_see_complete_versions() {
    check("radix_reads_see_complete_versions", |rng| {
        let rack = small_rack();
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), 2).unwrap();
        let retired = RetireList::new();
        let tree = RadixTree::alloc(rack.global(), 2).unwrap();
        let (writer, reader) = (rack.node(0), rack.node(1));
        let mut model: HashMap<u64, u64> = HashMap::new();

        let writes = 1 + rng.gen_index(11);
        for _ in 0..writes {
            let key = rng.gen_range(0..tree.key_capacity());
            let value = rng.next_u64() >> 1;
            tree.insert(&writer, &alloc, &epochs, &retired, key, value)
                .unwrap();
            model.insert(key, value);
            // Reader on the other node always sees the whole latest
            // version: every key, none stale.
            let guard = epochs.handle(reader.clone()).read_lock().unwrap();
            for (&k, &v) in &model {
                assert_eq!(tree.get(&reader, &guard, k).unwrap(), Some(v));
            }
            drop(guard);
            retired.reclaim(&writer, &epochs, &alloc).unwrap();
        }
    });
}

#[test]
fn seeded_storm_campaigns_replay_byte_identically() {
    use rack_sim::storm::{self, StormOp, StormShape};

    // Property: any seed's plan replayed against a fresh rack with the
    // same deterministic reaction produces the identical event log and
    // the identical cache/fault activity — the reproducibility guarantee
    // the judged rerun of `figures storm` rests on.
    check("seeded_storm_campaigns_replay_byte_identically", |rng| {
        let seed = rng.next_u64();
        let shape = StormShape::Full {
            poison_region: (GAddr(0), 4096),
        };
        let run = || {
            // Four nodes, so the storm can crash two of them.
            let rack = Rack::new(RackConfig::n_node(4).with_global_mem(32 << 20));
            // A deterministic reaction that actually touches the rack:
            // every workload step does a cached write + writeback.
            let scratch = rack.global().alloc(4096, 64).unwrap();
            let mut writes = 0u64;
            let mut log = format!("seed {seed:#018x}\n");
            for step in storm::plan(seed, shape, rack.node_count()) {
                storm::inject(&rack, &step);
                if matches!(step.op, StormOp::Workload) {
                    let addr = GAddr(scratch.0 + (writes % 64) * 64);
                    let node = rack.node(0);
                    if node.is_alive() && node.write_u64(addr, u64::from(step.step)).is_ok() {
                        node.writeback(addr, 8);
                        writes += 1;
                    }
                }
                log.push_str(&format!("{step} :: {} handled\n", step.op));
            }
            let cache = rack.node(0).cache_stats();
            let faults: Vec<String> = rack.faults().log_lines();
            (log, cache, faults)
        };
        let (log_a, cache_a, faults_a) = run();
        let (log_b, cache_b, faults_b) = run();
        assert_eq!(log_a, log_b, "storm log must be byte-identical");
        assert_eq!(cache_a, cache_b, "cache activity must replay exactly");
        assert_eq!(faults_a, faults_b, "injector log must replay exactly");
    });
}

/// A staged migration of a 4 KiB page or a 2 MiB region: while it is
/// guarded every accessor bounces, on commit ONE ranged round retires
/// the stale translations and one PTE of `size` maps the complete copy,
/// on abort a survivor re-publishes the still-authoritative base pages —
/// and either way readers see whole pre-move bytes, never torn ones.
fn migration_never_tears(rng: &mut SplitMix64, size: PageSize) {
    let rack = small_rack();
    let (n0, n1) = (rack.node(0), rack.node(1));
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
    let space = AddressSpace::alloc(3, rack.global(), alloc, epochs, RetireList::new()).unwrap();
    let frames = FrameAllocator::new(rack.global().clone());
    let pages = size.pages();
    // A page among 32, or a region among 2.
    let slots = match size {
        PageSize::Base => 32,
        PageSize::Huge => 2,
    };
    let head = pages * rng.gen_index(slots) as u64;
    let pattern = |vpn: u64| vec![(vpn - head) as u8 ^ 0xA5; PAGE_SIZE];
    for vpn in head..head + pages {
        let f = PhysFrame::Global(frames.alloc(&n0).unwrap());
        space.map(&n0, vpn, Pte::new(f, true)).unwrap();
        space.write_frame(&n0, f, &pattern(vpn)).unwrap();
    }

    // A peer caches a random page's translation before the move begins.
    let mut tlbs: Vec<Tlb> = (0..2).map(|i| Tlb::new(rack.node(i), 8)).collect();
    let probe = head + rng.gen_index(pages as usize) as u64;
    let cached = space
        .translate(&n1, VirtAddr::from_vpn(probe))
        .unwrap()
        .unwrap();
    tlbs[1].fill(3, probe, cached);

    let dst = PhysFrame::Global(rack.global().alloc(size.bytes(), PAGE_SIZE).unwrap());
    let mut m = Migration::begin(&n0, &space, head, size, dst).unwrap();
    let old_head = m.old()[0].frame;
    // Guarded window: every page bounces; a torn read of the half-copied
    // destination is impossible.
    let mut buf = vec![0u8; PAGE_SIZE];
    assert!(matches!(
        space.read(&n1, VirtAddr::from_vpn(probe), &mut buf),
        Err(SimError::WouldBlock)
    ));
    assert!(matches!(
        space.write(&n0, VirtAddr::from_vpn(head), &[1u8; 8]),
        Err(SimError::WouldBlock)
    ));
    m.copy(&n0, &space).unwrap();

    let (expected_frame, expected_size) = if rng.gen_bool() {
        // Commit: the head flips atomically to one PTE of `size` over the
        // complete copy, and one ranged round shoots the peer's stale
        // translation down.
        m.commit(&n0, &space, &mut |asid, v, span| {
            shootdown_stepped_range(&mut tlbs, 0, asid, v, span)
        })
        .unwrap();
        assert_eq!(
            tlbs[0].stats().shootdown_rounds,
            1,
            "one round per migration"
        );
        assert_eq!(tlbs[1].lookup(3, probe), None, "stale translation survives");
        (dst, size)
    } else {
        // Abort (the migrating node died): a survivor re-publishes every
        // still-authoritative base mapping.
        m.abort(&n1, &space).unwrap();
        (old_head, PageSize::Base)
    };
    let head_pte = space
        .translate(&n1, VirtAddr::from_vpn(head))
        .unwrap()
        .unwrap();
    assert_eq!(head_pte.frame, expected_frame);
    assert_eq!(head_pte.page_size, expected_size);
    assert!(!head_pte.migrating);
    // Either outcome: whole pre-move patterns, never torn.
    for _ in 0..4 {
        let vpn = head + rng.gen_index(pages as usize) as u64;
        space.read(&n1, VirtAddr::from_vpn(vpn), &mut buf).unwrap();
        assert_eq!(buf, pattern(vpn), "whole old bytes on either outcome");
    }
    // The pages stay writable and coherent across nodes.
    let pattern_b = vec![0xBB; PAGE_SIZE];
    space
        .write(&n1, VirtAddr::from_vpn(probe), &pattern_b)
        .unwrap();
    space
        .read(&n0, VirtAddr::from_vpn(probe), &mut buf)
        .unwrap();
    assert_eq!(buf, pattern_b);
}

#[test]
fn mid_migration_readers_see_old_or_new_never_torn() {
    check("mid_migration_readers_see_old_or_new_never_torn", |rng| {
        migration_never_tears(rng, PageSize::Base)
    });
}

#[test]
fn mid_region_migration_readers_see_old_or_new_never_torn() {
    check(
        "mid_region_migration_readers_see_old_or_new_never_torn",
        |rng| migration_never_tears(rng, PageSize::Huge),
    );
}

#[test]
fn region_split_preserves_bytes_and_perms() {
    check("region_split_preserves_bytes_and_perms", |rng| {
        let rack = small_rack();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let space =
            AddressSpace::alloc(4, rack.global(), alloc, epochs, RetireList::new()).unwrap();
        let head = PAGES_PER_HUGE * rng.gen_index(2) as u64;
        let region = rack.global().alloc(HUGE_PAGE_SIZE, PAGE_SIZE).unwrap();
        let writable = rng.gen_bool();
        // Fill the span through the frames (permissions gate virtual
        // writes, not physical fills).
        let mut page = vec![0u8; PAGE_SIZE];
        for i in 0..PAGES_PER_HUGE {
            page.fill(i as u8 ^ 0x5A);
            space
                .write_frame(
                    &n0,
                    PhysFrame::Global(region.offset(i * PAGE_SIZE as u64)),
                    &page,
                )
                .unwrap();
        }
        space
            .map(
                &n0,
                head,
                Pte::new(PhysFrame::Global(region), writable).huge(),
            )
            .unwrap();

        // A peer caches the head entry and a synthesized interior view.
        let mut tlbs: Vec<Tlb> = (0..2).map(|i| Tlb::new(rack.node(i), 8)).collect();
        let probe = head + 1 + rng.gen_index(PAGES_PER_HUGE as usize - 1) as u64;
        let head_pte = space
            .translate(&n1, VirtAddr::from_vpn(head))
            .unwrap()
            .unwrap();
        let view = space
            .translate(&n1, VirtAddr::from_vpn(probe))
            .unwrap()
            .unwrap();
        tlbs[1].fill(4, head, head_pte);
        tlbs[1].fill(4, probe, view);

        let displaced = split_region(&n0, &space, head, &mut |asid, v, span| {
            shootdown_stepped_range(&mut tlbs, 0, asid, v, span)
        })
        .unwrap();
        assert_eq!(displaced.frame, PhysFrame::Global(region));
        assert_eq!(
            tlbs[0].stats().shootdown_rounds,
            1,
            "one ranged round per split"
        );
        assert_eq!(tlbs[1].lookup(4, head), None);
        assert_eq!(tlbs[1].lookup(4, probe), None);

        // Every sampled page: base-sized, the same permission bit, the
        // identical bytes at the identical physical offset (a split
        // copies nothing).
        let mut buf = vec![0u8; PAGE_SIZE];
        for _ in 0..6 {
            let vpn = head + rng.gen_index(PAGES_PER_HUGE as usize) as u64;
            let pte = space
                .translate(&n1, VirtAddr::from_vpn(vpn))
                .unwrap()
                .unwrap();
            assert_eq!(pte.page_size, PageSize::Base);
            assert_eq!(pte.writable, writable);
            assert_eq!(
                pte.frame,
                PhysFrame::Global(region.offset((vpn - head) * PAGE_SIZE as u64))
            );
            space.read(&n1, VirtAddr::from_vpn(vpn), &mut buf).unwrap();
            assert_eq!(buf, vec![(vpn - head) as u8 ^ 0x5A; PAGE_SIZE]);
        }
    });
}

#[test]
fn policy_switch_preserves_state_and_read_history() {
    use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
    use std::collections::BTreeMap;

    /// A tiny KV under the cell: op = key byte + u64 value (0 deletes).
    #[derive(Debug, Default, Clone)]
    struct Kv(BTreeMap<u8, u64>);
    impl SyncState for Kv {
        fn apply(&mut self, op: &[u8]) {
            let mut d = Decoder::new(op);
            let (Ok(k), Ok(v)) = (d.u8(), d.u64()) else {
                return;
            };
            if v == 0 {
                self.0.remove(&k);
            } else {
                self.0.insert(k, v);
            }
        }
    }

    const POLICIES: [SyncPolicy; 4] = [
        SyncPolicy::Lock,
        SyncPolicy::Replicated,
        SyncPolicy::Delegated,
        SyncPolicy::Rcu,
    ];

    // Property: the same deterministic interleaving of reads and
    // updates produces the same final state and the same read history
    // whether the cell stays on one policy or is forced through a
    // policy switch mid-sequence — a switch must never lose, reorder,
    // or double-apply a committed op.
    check("policy_switch_preserves_state_and_read_history", |rng| {
        let from = POLICIES[rng.gen_index(POLICIES.len())];
        let to = POLICIES[rng.gen_index(POLICIES.len())];
        let ops = 24 + rng.gen_index(40);
        let switch_at = rng.gen_index(ops);
        // (node, Some((key, value)) = update, None = read) per step.
        let script: Vec<(usize, Option<(u8, u64)>)> = (0..ops)
            .map(|_| {
                let node = rng.gen_index(2);
                if rng.gen_bool() {
                    (node, None)
                } else {
                    (
                        node,
                        Some((rng.gen_index(8) as u8, 1 + rng.next_u64() % 100)),
                    )
                }
            })
            .collect();

        let run = |switched: bool| {
            let rack = small_rack();
            let cell = SyncCell::alloc(
                rack.global(),
                "prop_switch",
                SyncCellConfig::new(rack.node_count(), from).with_log(1024, 48),
                Kv::default(),
            )
            .unwrap();
            let mut history: Vec<BTreeMap<u8, u64>> = Vec::new();
            for (i, (node, action)) in script.iter().enumerate() {
                let ctx = rack.node(*node);
                if switched && i == switch_at {
                    cell.set_policy(&ctx, to).unwrap();
                }
                match action {
                    None => history.push(cell.read(&ctx, |kv| kv.0.clone()).unwrap()),
                    Some((k, v)) => {
                        let mut e = Encoder::new();
                        e.put_u8(*k).put_u64(*v);
                        cell.update(&ctx, &e.into_vec()).unwrap();
                    }
                }
            }
            let final_state = cell.read(&rack.node(0), |kv| kv.0.clone()).unwrap();
            (history, final_state, cell.committed(&rack.node(0)).unwrap())
        };

        let (hist_single, final_single, committed_single) = run(false);
        let (hist_switched, final_switched, committed_switched) = run(true);
        assert_eq!(hist_switched, hist_single, "read history diverged");
        assert_eq!(final_switched, final_single, "final state diverged");
        assert_eq!(committed_switched, committed_single, "op count diverged");
    });
}

#[test]
fn node_replicated_combine_matches_replay_on_every_replica() {
    use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};

    /// Commit-ordered ledger: divergence (loss, duplication, reorder)
    /// is directly visible in the entry list.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Ledger(Vec<(u32, u32)>);
    impl SyncState for Ledger {
        fn apply(&mut self, op: &[u8]) {
            let mut d = Decoder::new(op);
            if let (Ok(a), Ok(b)) = (d.u32(), d.u32()) {
                self.0.push((a, b));
            }
        }
    }

    // Property: N nodes appending concurrently through the
    // flat-combining protocol — batch publications, a different
    // combiner every round, blocking updates interleaved — always
    // yields a log whose from-scratch replay equals the authoritative
    // state AND every node's caught-up replica, and the whole run is
    // byte-identical when repeated from the same seed.
    check(
        "node_replicated_combine_matches_replay_on_every_replica",
        |rng| {
            let nodes = 3 + rng.gen_index(3); // 3..=5
            let rounds = 4 + rng.gen_index(8);
            // Script: per round, per node: 0 = idle, 1..=2 ops published as
            // one batch; plus a combiner choice and an optional update().
            let script: Vec<(Vec<usize>, usize, Option<usize>)> = (0..rounds)
                .map(|_| {
                    (
                        (0..nodes).map(|_| rng.gen_index(3)).collect(),
                        rng.gen_index(nodes),
                        rng.gen_bool().then(|| rng.gen_index(nodes)),
                    )
                })
                .collect();

            let run = || {
                let rack = Rack::new(RackConfig::n_node(nodes).with_global_mem(32 << 20));
                let cell = SyncCell::alloc(
                    rack.global(),
                    "prop_nr",
                    SyncCellConfig::new(nodes, SyncPolicy::NodeReplicated).with_log(1024, 48),
                    Ledger::default(),
                )
                .unwrap();
                let mut seq = 0u32;
                for (publishes, combiner, updater) in &script {
                    let mut published = Vec::new();
                    for (node, &count) in publishes.iter().enumerate() {
                        if count == 0 {
                            continue;
                        }
                        let ops: Vec<Vec<u8>> = (0..count)
                            .map(|_| {
                                seq += 1;
                                let mut e = Encoder::new();
                                e.put_u32(node as u32).put_u32(seq);
                                e.into_vec()
                            })
                            .collect();
                        let refs: Vec<&[u8]> = ops.iter().map(Vec::as_slice).collect();
                        cell.nr_publish_batch(&rack.node(node), &refs).unwrap();
                        published.push(node);
                    }
                    cell.nr_combine(&rack.node(*combiner)).unwrap();
                    for node in published {
                        assert!(
                            cell.nr_poll(&rack.node(node)).unwrap().is_some(),
                            "publication from node {node} never acknowledged"
                        );
                    }
                    if let Some(node) = updater {
                        seq += 1;
                        let mut e = Encoder::new();
                        e.put_u32(*node as u32).put_u32(seq);
                        cell.update(&rack.node(*node), &e.into_vec()).unwrap();
                    }
                }
                // From-scratch replay is the ground truth...
                let (replayed, committed) = cell.replay(&rack.node(0), Ledger::default()).unwrap();
                // ...the authoritative state must equal it...
                assert_eq!(
                    cell.read(&rack.node(0), |l| l.clone()).unwrap(),
                    replayed,
                    "authoritative state diverged from replay"
                );
                // ...and so must every node's caught-up replica.
                for node in 0..nodes {
                    cell.sync_replica(&rack.node(node)).unwrap();
                    let local = cell.read_local(&rack.node(node), |l| l.clone()).unwrap();
                    assert_eq!(
                        local, replayed,
                        "replica on node {node} diverged from replay"
                    );
                }
                (format!("{replayed:?}"), committed)
            };

            let (bytes_a, committed_a) = run();
            let (bytes_b, committed_b) = run();
            assert_eq!(bytes_a, bytes_b, "same seed must replay byte-identically");
            assert_eq!(committed_a, committed_b, "op count diverged across reruns");
        },
    );
}

/// One node-cache operation over a byte span, for the span/line
/// differential below.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CacheOp {
    Read,
    Write,
    Writeback,
    Invalidate,
    Flush,
}

/// A cache over a pool of its own, so two of them can be driven with the
/// same op stream and compared.
struct CacheUnderTest {
    global: GlobalMemory,
    cache: NodeCache,
}

impl CacheUnderTest {
    fn new(pool: usize, config: CacheConfig) -> Self {
        CacheUnderTest {
            global: GlobalMemory::new(pool),
            cache: NodeCache::new(config),
        }
    }

    /// Apply `op` to `[addr, addr + buf.len())` as one span; returns the
    /// simulated cost. `buf` is the write payload or the read target.
    fn apply(&self, lat: &LatencyModel, op: CacheOp, addr: u64, buf: &mut [u8]) -> u64 {
        let (g, c, a) = (&self.global, &self.cache, GAddr(addr));
        match op {
            CacheOp::Read => c.read(g, lat, a, buf).unwrap(),
            CacheOp::Write => c.write(g, lat, a, buf).unwrap(),
            CacheOp::Writeback => c.writeback(g, lat, a, buf.len()),
            CacheOp::Invalidate => c.invalidate(lat, a, buf.len()),
            CacheOp::Flush => c.flush(g, lat, a, buf.len()),
        }
    }

    /// Apply `op` to the same span cut at line boundaries, front to back:
    /// the line-at-a-time walk the span path replaced.
    fn apply_cut(&self, lat: &LatencyModel, op: CacheOp, addr: u64, buf: &mut [u8]) -> u64 {
        let mut cost = 0;
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let take = (LINE_SIZE - (a as usize % LINE_SIZE)).min(buf.len() - pos);
            cost += self.apply(lat, op, a, &mut buf[pos..pos + take]);
            pos += take;
        }
        cost
    }

    fn pool_bytes(&self) -> Vec<u8> {
        let mut bytes = vec![0u8; self.global.capacity()];
        self.global.read_bytes(GAddr(0), &mut bytes).unwrap();
        bytes
    }
}

#[test]
fn span_ops_match_the_same_spans_cut_at_line_boundaries() {
    // Differential check of the span-granular data path: one cache is
    // given whole spans, the other the same spans cut into per-line
    // pieces. Caches are small enough that spans evict (their own lines
    // included), spans run from 1 B to 16 KiB, aligned and not. After
    // every op the two must agree on the bytes a read returned, on the
    // pool's contents, on every counter and on the resident set; and the
    // whole span must cost exactly what the pieces cost minus the burst
    // discount — every miss (dirty line written back, line dropped)
    // after a span's first pays the tail instead of the full latency.
    const POOL: usize = 32 << 10;
    let lat = LatencyModel::hccs();
    let tail = lat.transfer_ns(LINE_SIZE).max(1);
    check(
        "span_ops_match_the_same_spans_cut_at_line_boundaries",
        |rng| {
            let config = CacheConfig {
                max_lines: [16, 64, 160][rng.gen_index(3)],
                banks: [1, 4, 16][rng.gen_index(3)],
            };
            let whole = CacheUnderTest::new(POOL, config.clone());
            let cut = CacheUnderTest::new(POOL, config);
            for step in 0..48 {
                let op = [
                    CacheOp::Read,
                    CacheOp::Write,
                    CacheOp::Write,
                    CacheOp::Writeback,
                    CacheOp::Invalidate,
                    CacheOp::Flush,
                ][rng.gen_index(6)];
                let len = match rng.gen_index(4) {
                    0 => 1 + rng.gen_index(LINE_SIZE),
                    1 => 1 + rng.gen_index(1024),
                    2 => LINE_SIZE * (1 + rng.gen_index(64)),
                    _ => 1 + rng.gen_index(16 << 10),
                };
                let mut addr = rng.gen_index(POOL - len + 1);
                if rng.gen_bool() {
                    addr -= addr % LINE_SIZE;
                }
                let mut buf_whole = rng.gen_bytes(len);
                let mut buf_cut = buf_whole.clone();

                let before: CacheStats = whole.cache.stats();
                let cost_whole = whole.apply(&lat, op, addr as u64, &mut buf_whole);
                let cost_cut = cut.apply_cut(&lat, op, addr as u64, &mut buf_cut);
                let ctx = format!("step {step}: {op:?} at {addr:#x}+{len}");

                assert!(buf_whole == buf_cut, "{ctx}: bytes returned");
                assert_eq!(whole.cache.stats(), cut.cache.stats(), "{ctx}: counters");
                assert_eq!(
                    whole.cache.resident_line_ids(),
                    cut.cache.resident_line_ids(),
                    "{ctx}: resident set"
                );
                assert!(
                    whole.pool_bytes() == cut.pool_bytes(),
                    "{ctx}: pool contents"
                );

                let after = whole.cache.stats();
                let extra = |n: u64, full: u64, rest: u64| n.saturating_sub(1) * (full - rest);
                let discount = match op {
                    CacheOp::Read | CacheOp::Write => {
                        extra(after.misses - before.misses, lat.global_read_ns, tail)
                    }
                    // No eviction runs inside a maintenance op, so the
                    // writebacks it counted are exactly the dirty lines it
                    // charged.
                    CacheOp::Writeback | CacheOp::Invalidate | CacheOp::Flush => {
                        extra(
                            after.writebacks - before.writebacks,
                            lat.writeback_line_ns,
                            tail,
                        ) + extra(
                            after.invalidations - before.invalidations,
                            lat.invalidate_line_ns,
                            lat.invalidate_extra_line_ns,
                        )
                    }
                };
                assert_eq!(cost_whole + discount, cost_cut, "{ctx}: burst discount");
            }
        },
    );
}

#[test]
fn span_re_missing_its_own_dirty_victim_takes_the_victims_bytes() {
    // A span longer than its bank's capacity can evict a dirty line and
    // miss on that same line later in the same bank visit — after the
    // span's one fabric read, and before the victim has reached the
    // pool. The line's contents are then the victim's bytes, not the
    // (older) pool bytes the span prefetched.
    let lat = LatencyModel::hccs();
    let t = CacheUnderTest::new(
        8 * LINE_SIZE,
        CacheConfig {
            max_lines: 2,
            banks: 1,
        },
    );
    let line3 = 3 * LINE_SIZE as u64;
    let mut payload = [0xABu8; 24];
    t.apply(&lat, CacheOp::Write, line3 + 8, &mut payload); // line 3: resident, dirty

    // Lines 0..=3 in one span. Line 0 misses and fetches all four lines
    // (line 3's pool bytes are still zero); line 1's install evicts dirty
    // line 3; line 3 then misses with its victim still queued.
    let mut out = [0x55u8; 4 * LINE_SIZE];
    let cost = t.apply(&lat, CacheOp::Read, 0, &mut out);

    let mut expect = [0u8; 4 * LINE_SIZE];
    expect[3 * LINE_SIZE + 8..3 * LINE_SIZE + 32].fill(0xAB);
    assert!(out == expect, "line 3 must carry the bytes written to it");
    assert!(
        t.pool_bytes()[..4 * LINE_SIZE] == expect,
        "the victim still reaches the pool"
    );
    let s = t.cache.stats();
    assert_eq!((s.misses, s.hits, s.allocs), (5, 0, 0));
    assert_eq!((s.evictions, s.writebacks), (3, 1));
    assert_eq!(t.cache.resident_line_ids(), vec![2, 3]);
    let tail = lat.transfer_ns(LINE_SIZE).max(1);
    assert_eq!(cost, lat.global_read_ns + 3 * tail + lat.writeback_line_ns);
}
