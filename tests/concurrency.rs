//! Real-thread concurrency stress tests.
//!
//! Most experiments run the simulator cooperatively (deterministic
//! virtual time), but the substrate is fully `Sync`: global memory is
//! atomics, node caches are behind locks, and the lock-free structures
//! claim linearizability. These tests put actual OS threads behind those
//! claims — fabric atomics, the operation log, the SPSC ring, the
//! allocator, and the COW radix tree all hammered in parallel.

use flacdk::alloc::GlobalAllocator;
use flacdk::ds::radix::RadixTree;
use flacdk::ds::ringbuf::SpscRing;
use flacdk::hw::GlobalCell;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use rack_sim::{GAddr, Rack, RackConfig, SimError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

fn rack() -> Rack {
    Rack::new(RackConfig::small_test().with_global_mem(64 << 20))
}

#[test]
fn fabric_atomics_are_linearizable_across_threads() {
    let rack = rack();
    let cell = GlobalCell::alloc(rack.global(), 0).unwrap();
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 2_000;

    thread::scope(|s| {
        for t in 0..THREADS {
            let node = rack.node(t % rack.node_count());
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    cell.fetch_add(&node, 1).unwrap();
                }
            });
        }
    });
    assert_eq!(
        cell.load(&rack.node(0)).unwrap(),
        THREADS as u64 * PER_THREAD,
        "no increments lost under real parallelism"
    );
}

#[test]
fn spsc_ring_is_fifo_under_real_threads() {
    let rack = rack();
    let ring = SpscRing::alloc(rack.global(), 32, 64).unwrap();
    const COUNT: u32 = 5_000;

    thread::scope(|s| {
        let producer = rack.node(0);
        let consumer = rack.node(1);
        s.spawn(move || {
            for i in 0..COUNT {
                loop {
                    match ring.push(&producer, &i.to_le_bytes()) {
                        Ok(()) => break,
                        Err(SimError::WouldBlock) => std::hint::spin_loop(),
                        Err(e) => panic!("push: {e}"),
                    }
                }
            }
        });
        s.spawn(move || {
            for expected in 0..COUNT {
                let got = loop {
                    match ring.pop(&consumer) {
                        Ok(v) => break v,
                        Err(SimError::WouldBlock) => std::hint::spin_loop(),
                        Err(e) => panic!("pop: {e}"),
                    }
                };
                assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), expected);
            }
        });
    });
}

#[test]
fn allocator_hands_out_disjoint_objects_under_threads() {
    let rack = rack();
    let alloc = GlobalAllocator::new(rack.global().clone());
    const THREADS: usize = 4;
    const PER_THREAD: usize = 300;

    let mut all: Vec<u64> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let alloc = alloc.clone();
                let node = rack.node(t % rack.node_count());
                s.spawn(move || {
                    (0..PER_THREAD)
                        .map(|_| alloc.alloc(&node, 128).unwrap().0)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    all.sort_unstable();
    for pair in all.windows(2) {
        assert!(pair[1] - pair[0] >= 128, "live objects overlap: {pair:?}");
    }
}

#[test]
fn radix_concurrent_inserts_of_disjoint_keys_all_land() {
    let rack = rack();
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
    let retired = RetireList::new();
    let tree = RadixTree::alloc(rack.global(), 3).unwrap();
    const THREADS: usize = 2; // one per node (CAS-retry path is shared)
    const PER_THREAD: u64 = 300;

    thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let node = rack.node(t as usize);
            let alloc = alloc.clone();
            let epochs = epochs.clone();
            let retired = retired.clone();
            let tree = &tree;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let key = t * PER_THREAD + i;
                    tree.insert(&node, &alloc, &epochs, &retired, key, key * 7)
                        .unwrap();
                }
            });
        }
    });

    let node = rack.node(0);
    let guard = epochs.handle(node.clone()).read_lock().unwrap();
    for key in 0..(THREADS as u64 * PER_THREAD) {
        assert_eq!(
            tree.get(&node, &guard, key).unwrap(),
            Some(key * 7),
            "key {key} lost in a CAS race"
        );
    }
    drop(guard);
    // And the retire machinery stayed consistent.
    retired.reclaim(&node, &epochs, &alloc).unwrap();
}

#[test]
fn sharded_cache_cost_totals_are_interleaving_independent() {
    // Four threads hammer ONE node's cache, each owning a disjoint set of
    // line-id classes (ids congruent to t mod 4), which also means
    // disjoint banks of the 16-bank cache (bank = id & 15), and banks
    // partition capacity. Because each line's hit/miss/dirty history then
    // depends only on its own thread's program order, the node's total
    // simulated charge and cache counters must be identical on every run
    // — and identical to running the same four programs serially.
    // Parallelism may reorder wall-clock execution, never simulated cost.
    const THREADS: u64 = 4;
    const LINES_PER_THREAD: u64 = 64;
    const ROUNDS: u64 = 20;

    fn thread_program(node: &rack_sim::NodeCtx, base_line: u64, t: u64) {
        for round in 0..ROUNDS {
            for i in 0..LINES_PER_THREAD {
                let line = base_line + i * THREADS + t;
                let addr = GAddr(line * rack_sim::LINE_SIZE as u64);
                node.write_u64(addr, line ^ round).unwrap();
                assert_eq!(node.read_u64(addr).unwrap(), line ^ round);
                if (i + round) % 3 == 0 {
                    node.writeback(addr, 8);
                }
                if (i + round) % 5 == 0 {
                    node.invalidate(addr, 8);
                }
            }
        }
    }

    let run = |parallel: bool| {
        let rack = rack();
        let n0 = rack.node(0);
        let span = (THREADS * LINES_PER_THREAD) as usize * rack_sim::LINE_SIZE;
        let base = rack.global().alloc(span, rack_sim::LINE_SIZE).unwrap();
        let base_line = base.0 / rack_sim::LINE_SIZE as u64;
        if parallel {
            thread::scope(|s| {
                for t in 0..THREADS {
                    let n0 = n0.clone();
                    s.spawn(move || thread_program(&n0, base_line, t));
                }
            });
        } else {
            for t in 0..THREADS {
                thread_program(&n0, base_line, t);
            }
        }
        let snap = n0.stats().snapshot();
        assert_eq!(snap.total_charged_ns(), n0.clock().now());
        (n0.clock().now(), n0.cache_stats())
    };

    let serial = run(false);
    for attempt in 0..4 {
        assert_eq!(
            run(true),
            serial,
            "parallel run {attempt} diverged from the serial baseline"
        );
    }
}

#[test]
fn overlapping_page_spans_cost_totals_are_interleaving_independent() {
    // The same contract at span granularity. Four threads on ONE node
    // issue 4 KiB (and longer) spans, which touch every bank, so unlike
    // the test above their spans interleave within every bank, and their
    // read windows over a shared warm region overlap line for line.
    // Determinism survives because shared lines are only ever *hit* (a
    // hit costs the same whoever else is hitting it) while every line
    // that misses, dirties, writes back or drops is private to one
    // thread, so its history follows that thread's program order.
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 12;
    const PAGE: usize = 4096;
    const SHARED_PAGES: usize = 8;

    fn thread_program(node: &rack_sim::NodeCtx, shared: GAddr, private: GAddr, t: u64) {
        let mut window = vec![0u8; PAGE];
        for round in 0..ROUNDS {
            // Unaligned 4 KiB window (65 lines) into the warm region.
            let off = (t * 1000 + round * 712) % ((SHARED_PAGES as u64 - 2) * PAGE as u64);
            node.read(GAddr(shared.0 + off), &mut window).unwrap();
            assert!(window.iter().all(|&b| b == 0x5A), "warm region is constant");

            let fill = (t * 16 + round) as u8;
            node.write(private, &vec![fill; PAGE]).unwrap();
            node.write(GAddr(private.0 + PAGE as u64 + 10), &[fill; 300])
                .unwrap();
            node.writeback(private, 2 * PAGE);
            node.read(private, &mut window).unwrap();
            assert!(window.iter().all(|&b| b == fill), "own page reads back");
            if round % 3 == 0 {
                node.flush(GAddr(private.0 + PAGE as u64), PAGE);
            }
            if round % 4 == 0 {
                node.invalidate(private, PAGE);
                node.read(private, &mut window).unwrap(); // cold span refill
                assert!(window.iter().all(|&b| b == fill));
            }
        }
    }

    let run = |parallel: bool| {
        let rack = rack();
        let n0 = rack.node(0);
        let shared = rack.global().alloc(SHARED_PAGES * PAGE, PAGE).unwrap();
        let private = rack
            .global()
            .alloc(THREADS as usize * 2 * PAGE, PAGE)
            .unwrap();
        // Warm the shared region (written by another node, so node 0
        // holds it clean).
        let n1 = rack.node(1);
        n1.write(shared, &vec![0x5A; SHARED_PAGES * PAGE]).unwrap();
        n1.writeback(shared, SHARED_PAGES * PAGE);
        n0.read(shared, &mut vec![0u8; SHARED_PAGES * PAGE])
            .unwrap();

        let private_of = |t: u64| GAddr(private.0 + t * 2 * PAGE as u64);
        if parallel {
            thread::scope(|s| {
                for t in 0..THREADS {
                    let n0 = n0.clone();
                    s.spawn(move || thread_program(&n0, shared, private_of(t), t));
                }
            });
        } else {
            for t in 0..THREADS {
                thread_program(&n0, shared, private_of(t), t);
            }
        }
        let snap = n0.stats().snapshot();
        assert_eq!(snap.total_charged_ns(), n0.clock().now());
        (n0.clock().now(), n0.cache_stats())
    };

    let serial = run(false);
    assert_eq!(serial.1.coalesced_fills, 0);
    for attempt in 0..4 {
        assert_eq!(
            run(true),
            serial,
            "parallel run {attempt} diverged from the serial baseline"
        );
    }
}

#[test]
fn cache_incoherence_is_thread_safe_even_if_stale() {
    // Two threads on different nodes read/write the same line through
    // their own caches. Values may be stale (that is the model!) but the
    // simulator must never tear a word or crash.
    let rack = rack();
    let addr = rack.global().alloc(8, 8).unwrap();
    const ROUNDS: u64 = 3_000;

    thread::scope(|s| {
        let writer = rack.node(0);
        s.spawn(move || {
            for i in 0..ROUNDS {
                // Writes a recognizable pattern, both halves identical.
                let v = i << 32 | i;
                writer.write_u64(addr, v).unwrap();
                writer.writeback(addr, 8);
            }
        });
        let reader = rack.node(1);
        s.spawn(move || {
            for _ in 0..ROUNDS {
                reader.invalidate(addr, 8);
                let v = reader.read_u64(addr).unwrap();
                assert_eq!(v >> 32, v & 0xffff_ffff, "torn word observed: {v:#x}");
            }
        });
    });
}

#[test]
fn cold_miss_storm_is_single_flight_per_line() {
    // N threads race through the same 64 cold lines. A fill completes
    // under the cache lock, so there is exactly one fabric read — one
    // `misses` increment — per line no matter how the threads interleave:
    // every other access finds the line resident and hits, so the
    // counters and the summed simulated cost are interleaving-independent
    // constants.
    use rack_sim::cache::{CacheConfig, NodeCache};
    use rack_sim::{GlobalMemory, LatencyModel, LINE_SIZE};
    use std::sync::Barrier;

    const THREADS: u64 = 4;
    const LINES: u64 = 64;
    let global = GlobalMemory::new((LINES as usize) * LINE_SIZE);
    let lat = LatencyModel::hccs();
    let cache = NodeCache::new(CacheConfig::default());
    let barrier = Barrier::new(THREADS as usize);

    let total_cost: u64 = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, global, lat, barrier) = (&cache, &global, &lat, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut cost = 0;
                    let mut buf = [0u8; 8];
                    for line in 0..LINES {
                        cost += cache
                            .read(global, lat, GAddr(line * LINE_SIZE as u64), &mut buf)
                            .unwrap();
                    }
                    cost
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let stats = cache.stats();
    assert_eq!(stats.misses, LINES, "exactly one fill per cold line");
    assert_eq!(stats.hits, (THREADS - 1) * LINES);
    assert_eq!(stats.coalesced_fills, 0);
    assert_eq!(stats.allocs, 0);
    assert_eq!(
        total_cost,
        LINES * lat.global_read_ns + (THREADS - 1) * LINES * lat.cache_hit_ns,
        "summed simulated cost is an interleaving-independent constant"
    );
}

#[test]
fn cold_page_storm_is_single_flight_per_line() {
    // The storm above with whole-page spans: four threads read the same
    // cold 4 KiB page, each as ONE span. A span holds the cache lock from
    // its first line to its last, so whichever thread gets the lock first
    // misses on all 64 lines with one fabric read and the other three hit
    // all 64: the total is one span's first miss, 63 bandwidth tails and
    // 192 hits, whatever the interleaving.
    use rack_sim::cache::{CacheConfig, NodeCache};
    use rack_sim::{GlobalMemory, LatencyModel, LINE_SIZE};
    use std::sync::Barrier;

    const THREADS: u64 = 4;
    const LINES: u64 = 64;
    let global = GlobalMemory::new(LINES as usize * LINE_SIZE);
    let pattern: Vec<u8> = (0..LINES as usize * LINE_SIZE)
        .map(|i| (i / 7) as u8)
        .collect();
    global.write_bytes(GAddr(0), &pattern).unwrap();
    let lat = LatencyModel::hccs();
    let cache = NodeCache::new(CacheConfig::default());
    let barrier = Barrier::new(THREADS as usize);

    let costs: Vec<u64> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, global, lat, barrier, pattern) =
                    (&cache, &global, &lat, &barrier, &pattern);
                s.spawn(move || {
                    barrier.wait();
                    let mut page = vec![0u8; pattern.len()];
                    let cost = cache.read(global, lat, GAddr(0), &mut page).unwrap();
                    assert!(page == *pattern, "every thread reads the page intact");
                    cost
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = cache.stats();
    assert_eq!(stats.misses, LINES, "exactly one fill per cold line");
    assert_eq!(stats.hits, (THREADS - 1) * LINES);
    assert_eq!(stats.coalesced_fills, 0);
    let tail = lat.transfer_ns(LINE_SIZE).max(1);
    let cold = lat.global_read_ns + (LINES - 1) * tail;
    let warm = LINES * lat.cache_hit_ns;
    let (mut got, mut want) = (costs.clone(), vec![cold, warm, warm, warm]);
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "one span paid the misses, three hit: {costs:?}");
}

#[test]
fn page_read_never_installs_bytes_older_than_the_nodes_own_flushed_write() {
    // Two threads of ONE node. The publisher writes line X, makes the
    // write global and drops the line, then reads X back: program order
    // on one node, so it must see its own write. The page reader keeps
    // re-reading the page around X as one span whose first miss (line 0,
    // flushed each round) fetches the page image early; had it installed
    // X from an image taken before the publisher's write reached the
    // pool, the publisher would read back bytes older than its own
    // flushed write. Each operation runs under the cache lock, so the
    // image and the install are one step. Both publish sequences are
    // covered: writeback + invalidate, and the one-call flush.
    use rack_sim::cache::{CacheConfig, NodeCache};
    use rack_sim::{GlobalMemory, LatencyModel, LINE_SIZE};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const ROUNDS: u64 = 200_000;
    const PAGE: usize = 64 * LINE_SIZE;
    let x = GAddr(37 * LINE_SIZE as u64);
    for publish_with_flush in [false, true] {
        let global = GlobalMemory::new(PAGE);
        let lat = LatencyModel::hccs();
        let cache = NodeCache::new(CacheConfig::default());
        let done = AtomicBool::new(false);
        let barrier = Barrier::new(2);
        let stale = thread::scope(|s| {
            let (cache, global, lat, done, barrier) = (&cache, &global, &lat, &done, &barrier);
            s.spawn(move || {
                let mut page = vec![0u8; PAGE];
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    cache.flush(global, lat, GAddr(0), 8);
                    cache.read(global, lat, GAddr(0), &mut page).unwrap();
                    // The cache lock is not fair: without a pause the
                    // reader re-takes it before the woken publisher runs,
                    // and the publisher's rounds crawl.
                    thread::yield_now();
                }
            });
            let publisher = s.spawn(move || {
                let mut stale = 0u64;
                barrier.wait();
                for i in 1..=ROUNDS {
                    cache.write(global, lat, x, &i.to_le_bytes()).unwrap();
                    if publish_with_flush {
                        cache.flush(global, lat, x, 8);
                    } else {
                        cache.writeback(global, lat, x, 8);
                        cache.invalidate(lat, x, 8);
                    }
                    let mut back = [0u8; 8];
                    cache.read(global, lat, x, &mut back).unwrap();
                    stale += u64::from(u64::from_le_bytes(back) != i);
                }
                done.store(true, Ordering::Relaxed);
                stale
            });
            publisher.join().unwrap()
        });
        assert_eq!(
            stale, 0,
            "publisher read back bytes older than its own flushed write \
             (publish_with_flush = {publish_with_flush})"
        );
    }
}

/// Committed-op counter: every op adds one.
#[derive(Debug, Default, Clone)]
struct OpCount(u64);

impl SyncState for OpCount {
    fn apply(&mut self, _op: &[u8]) {
        self.0 += 1;
    }
}

/// `append_batch` moves the log tail with its CAS *before* the flush that
/// commits the batch, so a replica that loads the new tail can find the
/// live combiner's entries still uncommitted. Skipping such a slot as a
/// hole loses its op from that replica for good; the catch-up must stop
/// at it and pick it up on the next call.
#[test]
fn replica_never_skips_a_live_combiners_in_flight_batch() {
    const ROUNDS: usize = 12;
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 1_000;
    const TOTAL: u64 = WRITERS as u64 * PER_WRITER;

    for round in 0..ROUNDS {
        let rack = Rack::new(RackConfig::n_node(WRITERS + 1).with_global_mem(16 << 20));
        let cell = SyncCell::alloc(
            rack.global(),
            "replica_stress",
            SyncCellConfig::new(WRITERS + 1, SyncPolicy::NodeReplicated).with_log(16_384, 48),
            OpCount::default(),
        )
        .unwrap();
        let reader = rack.node(WRITERS);
        let done = AtomicBool::new(false);

        thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (cell, node) = (&cell, rack.node(w));
                    s.spawn(move || {
                        (0..PER_WRITER)
                            .try_for_each(|i| cell.update(&node, &i.to_le_bytes()).map(|_| ()))
                    })
                })
                .collect();
            s.spawn(|| {
                let mut seen = 0;
                while !done.load(Ordering::Acquire) {
                    cell.sync_replica(&reader).unwrap();
                    let now = cell.read_local(&reader, |c| c.0).unwrap();
                    assert!(now >= seen, "replica went backwards: {seen} -> {now}");
                    seen = now;
                }
            });
            // Release the reader before judging the writers, so a failed
            // writer fails the test instead of hanging it.
            let results: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            done.store(true, Ordering::Release);
            for r in results {
                r.expect("writer panicked").expect("update failed");
            }
        });

        // Quiesced: one more catch-up must reach every committed op.
        assert_eq!(cell.sync_replica(&reader).unwrap(), TOTAL, "round {round}");
        assert_eq!(
            cell.read_local(&reader, |c| c.0).unwrap(),
            TOTAL,
            "round {round}: the replica skipped an op that was in flight"
        );
    }
}

#[test]
fn one_node_many_threads_snapshot_equals_a_serial_run() {
    // Threads sharing ONE node record into the same counters and
    // histograms. Each thread owns its lines, its fabric words and its
    // local buffer, and the cache never fills, so every op's simulated
    // cost depends only on its own thread's program order: the final
    // snapshot must match the serial run's in every field, whatever the
    // interleaving. A lost update to any counter shows as a mismatch.
    const THREADS: u64 = 3;
    const LINES_PER_THREAD: u64 = 32;
    const ROUNDS: u64 = 40;

    fn thread_program(node: &rack_sim::NodeCtx, base: GAddr, local: rack_sim::LAddr, t: u64) {
        let line = |i: u64| base.offset((t * LINES_PER_THREAD + i) * rack_sim::LINE_SIZE as u64);
        let word = base.offset((THREADS * LINES_PER_THREAD + t) * rack_sim::LINE_SIZE as u64);
        let mut page = [0u8; 4 * rack_sim::LINE_SIZE];
        for round in 0..ROUNDS {
            for i in 0..LINES_PER_THREAD {
                let addr = line(i);
                node.write_u64(addr, i ^ round).unwrap();
                assert_eq!(node.read_u64(addr).unwrap(), i ^ round);
                match (i + round) % 4 {
                    0 => node.writeback(addr, 8),
                    1 => node.invalidate(addr, 8),
                    2 => node.flush(addr, 8),
                    _ => node.charge(i * 7),
                }
            }
            node.read(line(round % (LINES_PER_THREAD - 4)), &mut page)
                .unwrap();
            node.load_uncached_u64(word).unwrap();
            node.store_uncached_u64(word, round).unwrap();
            node.fetch_add_u64(word, 1).unwrap();
            node.compare_exchange_u64(word, round + 1, round).unwrap();
            node.local_write(local, &round.to_le_bytes()).unwrap();
            node.local_read(local, &mut [0u8; 8]).unwrap();
            node.charge(round);
        }
    }

    let run = |parallel: bool| {
        let rack = rack();
        let n0 = rack.node(0);
        let lines = (THREADS * LINES_PER_THREAD + THREADS) as usize;
        let base = rack
            .global()
            .alloc(lines * rack_sim::LINE_SIZE, rack_sim::LINE_SIZE)
            .unwrap();
        let locals: Vec<_> = (0..THREADS).map(|_| n0.local_alloc(8).unwrap()).collect();
        if parallel {
            thread::scope(|s| {
                for (t, &local) in locals.iter().enumerate() {
                    let n0 = n0.clone();
                    s.spawn(move || thread_program(&n0, base, local, t as u64));
                }
            });
        } else {
            for (t, &local) in locals.iter().enumerate() {
                thread_program(&n0, base, local, t as u64);
            }
        }
        (n0.stats().snapshot(), n0.clock().now())
    };

    let (serial, serial_clock) = run(false);
    assert_eq!(serial.total_charged_ns(), serial_clock);
    for attempt in 0..3 {
        let (snap, clock) = run(true);
        assert_eq!(clock, serial_clock, "parallel run {attempt}: clock");
        assert_eq!(
            snap, serial,
            "parallel run {attempt} diverged from the serial run"
        );
    }
}
