//! End-to-end tests on the metrics layer: known operation mixes must
//! produce *exact* counter, histogram, and trace totals under the
//! default (HCCS) latency model, including after rack-wide merging and
//! through the subsystem counters the OS layers publish.

use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacos_fs::page_cache::SharedPageCache;
use flacos_ipc::channel::FlacChannel;
use flacos_mem::{AccessRing, AddressSpace, PhysFrame, Pte, VirtAddr, PAGE_SIZE};
use rack_sim::cache::NodeCache;
use rack_sim::metrics::{bucket_index, HistogramSnapshot};
use rack_sim::{
    AddrClass, CacheConfig, CostClass, GAddr, GlobalMemory, LatencyModel, NodeCtx, OpKind, Rack,
    RackConfig, SimError, SplitMix64, LINE_SIZE,
};

fn small_rack() -> Rack {
    Rack::new(RackConfig::small_test().with_global_mem(32 << 20))
}

#[test]
fn known_op_mix_yields_exact_totals() {
    const READS: u64 = 10;
    const ATOMICS: u64 = 7;

    let rack = small_rack();
    let n0 = rack.node(0);
    let lat = n0.latency().clone();
    let a = rack.global().alloc(8, 8).unwrap();

    for _ in 0..READS {
        n0.load_uncached_u64(a).unwrap();
    }
    for _ in 0..ATOMICS {
        n0.fetch_add_u64(a, 1).unwrap();
    }

    let snap = n0.stats().snapshot();
    // Counters: uncached loads count as global reads (8 bytes each).
    assert_eq!(snap.global_reads, READS);
    assert_eq!(snap.global_atomics, ATOMICS);
    assert_eq!(snap.global_writes, 0);

    // Histograms decompose the same ops by cost class, exactly.
    let uncached = snap.histogram(CostClass::Uncached);
    assert_eq!(uncached.count, READS);
    assert_eq!(uncached.total_ns, READS * lat.global_read_ns);
    assert_eq!(uncached.max_ns, lat.global_read_ns);
    assert_eq!(uncached.buckets[bucket_index(lat.global_read_ns)], READS);

    let atomic = snap.histogram(CostClass::Atomic);
    assert_eq!(atomic.count, ATOMICS);
    assert_eq!(atomic.total_ns, ATOMICS * lat.global_atomic_ns);
    assert_eq!(atomic.buckets[bucket_index(lat.global_atomic_ns)], ATOMICS);

    // Every charged nanosecond is accounted for: histogram totals equal
    // the node's clock.
    assert_eq!(snap.total_charged_ns(), n0.clock().now());
    assert_eq!(
        n0.clock().now(),
        READS * lat.global_read_ns + ATOMICS * lat.global_atomic_ns
    );
}

#[test]
fn rack_report_merges_nodes_exactly() {
    let rack = small_rack();
    let (n0, n1) = (rack.node(0), rack.node(1));
    let lat = n0.latency().clone();
    let a = rack.global().alloc(8, 8).unwrap();

    n0.load_uncached_u64(a).unwrap();
    n0.load_uncached_u64(a).unwrap();
    n1.fetch_add_u64(a, 1).unwrap();

    let report = rack.metrics_report();
    assert_eq!(report.per_node.len(), 2);
    assert_eq!(report.merged.global_reads, 2);
    assert_eq!(report.merged.global_atomics, 1);
    assert_eq!(report.merged.histogram(CostClass::Uncached).count, 2);
    assert_eq!(report.merged.histogram(CostClass::Atomic).count, 1);
    assert_eq!(
        report.merged.total_charged_ns(),
        2 * lat.global_read_ns + lat.global_atomic_ns
    );
    // Makespan is the slower node's clock, not the sum.
    assert_eq!(report.makespan_ns, 2 * lat.global_read_ns);

    // The report renders the decomposition used by `figures`.
    let text = report.to_string();
    assert!(text.contains("2 global reads"), "got: {text}");
    assert!(text.contains("lat[    uncached]"), "got: {text}");
    assert!(text.contains("makespan"), "got: {text}");
}

#[test]
fn tracing_captures_op_kinds_in_order() {
    let rack = small_rack();
    let n0 = rack.node(0);
    let a = rack.global().alloc(8, 8).unwrap();

    rack.enable_tracing();
    n0.load_uncached_u64(a).unwrap();
    n0.fetch_add_u64(a, 1).unwrap();
    n0.store_uncached_u64(a, 9).unwrap();
    rack.disable_tracing();
    n0.load_uncached_u64(a).unwrap(); // not traced

    let events = n0.stats().trace().events();
    assert_eq!(events.len(), 3);
    assert_eq!(events[0].kind, OpKind::Read);
    assert_eq!(events[1].kind, OpKind::Atomic);
    assert_eq!(events[2].kind, OpKind::Write);
    // Simulated timestamps are monotone within a node.
    assert!(events[0].at_ns < events[1].at_ns);
    assert!(events[1].at_ns < events[2].at_ns);
}

#[test]
fn cross_bank_spans_charge_burst_costs_exactly() {
    // A 256-byte line-aligned span covers four lines, which land in four
    // *different banks* of the default 16-bank sharded cache. Sharding
    // must not change the burst cost model: full fabric latency for the
    // first missed/dirty line of a span, bandwidth-limited tails after.
    let rack = small_rack();
    let n0 = rack.node(0);
    let lat = n0.latency().clone();
    let a = rack.global().alloc(256, 64).unwrap();
    let tail = lat.transfer_ns(rack_sim::LINE_SIZE).max(1);

    // Full-line writes allocate all four lines without fetching.
    let t = n0.clock().now();
    n0.write(a, &[7u8; 256]).unwrap();
    assert_eq!(n0.clock().now() - t, 4 * lat.cache_hit_ns);

    // Writeback: full latency for the first dirty line, tail for the rest.
    let t = n0.clock().now();
    n0.writeback(a, 256);
    assert_eq!(n0.clock().now() - t, lat.writeback_line_ns + 3 * tail);

    // The lines stay resident: a spanning read now hits every bank.
    let t = n0.clock().now();
    let mut buf = [0u8; 256];
    n0.read(a, &mut buf).unwrap();
    assert_eq!(buf, [7u8; 256]);
    assert_eq!(n0.clock().now() - t, 4 * lat.cache_hit_ns);

    // Invalidate: one instruction up front, per-line tail cost after.
    let t = n0.clock().now();
    n0.invalidate(a, 256);
    assert_eq!(
        n0.clock().now() - t,
        lat.invalidate_line_ns + 3 * lat.invalidate_extra_line_ns
    );

    // Cold read refetches the whole span as one burst.
    let t = n0.clock().now();
    n0.read(a, &mut buf).unwrap();
    assert_eq!(buf, [7u8; 256]);
    assert_eq!(n0.clock().now() - t, lat.global_read_ns + 3 * tail);

    // Flush = writeback burst + invalidate burst, in one charge.
    n0.write(a, &[9u8; 256]).unwrap(); // 4 hits, all dirty again
    let t = n0.clock().now();
    n0.flush(a, 256);
    assert_eq!(
        n0.clock().now() - t,
        (lat.writeback_line_ns + 3 * tail)
            + (lat.invalidate_line_ns + 3 * lat.invalidate_extra_line_ns)
    );

    // Per-line behaviour counters match the walk above, and the snapshot
    // view (read lock-free from the per-bank atomics) agrees.
    let cs = n0.cache_stats();
    assert_eq!(cs.allocs, 4);
    assert_eq!(cs.hits, 8);
    assert_eq!(cs.misses, 4);
    assert_eq!(cs.writebacks, 8);
    assert_eq!(cs.invalidations, 8);
    let snap = n0.stats().snapshot();
    assert_eq!(snap.cache_hits, cs.hits);
    assert_eq!(snap.cache_misses, cs.misses);
    assert_eq!(snap.cache_coalesced_fills, cs.coalesced_fills);
    assert_eq!(cs.coalesced_fills, 0, "single-threaded run never coalesces");

    // Every charged nanosecond is accounted for in the histograms.
    assert_eq!(snap.total_charged_ns(), n0.clock().now());
}

#[test]
fn unaligned_cross_bank_write_mixes_miss_alloc_and_tail() {
    // 100 bytes at line offset 32: a partial first line (RMW fill at full
    // fabric latency), a full middle line (write-allocate, no fill), and
    // a partial tail line (RMW fill at bandwidth cost).
    let rack = small_rack();
    let n0 = rack.node(0);
    let lat = n0.latency().clone();
    let base = rack.global().alloc(256, 64).unwrap();
    let addr = rack_sim::GAddr(base.0 + 32);
    let tail = lat.transfer_ns(rack_sim::LINE_SIZE).max(1);

    let t = n0.clock().now();
    n0.write(addr, &[3u8; 100]).unwrap();
    assert_eq!(
        n0.clock().now() - t,
        lat.global_read_ns + lat.cache_hit_ns + tail
    );
    let cs = n0.cache_stats();
    assert_eq!((cs.misses, cs.allocs, cs.hits), (2, 1, 0));

    // Write back, then verify global memory got exactly the RMW result.
    n0.flush(addr, 100);
    let mut out = [0u8; 256];
    rack.global().read_bytes(base, &mut out).unwrap();
    assert!(out[..32].iter().all(|&b| b == 0));
    assert!(out[32..132].iter().all(|&b| b == 3));
    assert!(out[132..].iter().all(|&b| b == 0));
}

#[test]
fn multi_bank_spans_in_the_capacity_regime_charge_exactly() {
    // A 4 KiB page (64 lines) through a 32-line, 4-bank cache: every bank
    // holds 8 lines and is handed 16, so spans evict their own lines —
    // dirty ones included — while they run. Costs stay sums over
    // per-line outcomes: a hit, the first miss of a span at full fabric
    // latency and every later one at the bandwidth tail, plus one
    // `writeback_line_ns` per dirty eviction, wherever in the span it
    // falls.
    let mut config = RackConfig::small_test().with_global_mem(1 << 20);
    config.cache = rack_sim::CacheConfig {
        max_lines: 32,
        banks: 4,
    };
    let rack = Rack::new(config);
    let n0 = rack.node(0);
    let lat = n0.latency().clone();
    let tail = lat.transfer_ns(rack_sim::LINE_SIZE).max(1);
    let page = rack.global().alloc(4096, 4096).unwrap();
    let charged = |f: &dyn Fn()| {
        let t = n0.clock().now();
        f();
        n0.clock().now() - t
    };

    // Full-line writes allocate all 64 lines; each bank's second eight
    // installs evict its first eight, dirty.
    let cost = charged(&|| n0.write(page, &[0x11u8; 4096]).unwrap());
    assert_eq!(cost, 64 * lat.cache_hit_ns + 32 * lat.writeback_line_ns);
    let cs = n0.cache_stats();
    assert_eq!((cs.allocs, cs.evictions, cs.writebacks), (64, 32, 32));

    // Reading the page back misses on all 64 lines: the first 32 were
    // evicted above, and refilling them evicts the (dirty) other 32
    // before the span reaches them — each of those is re-missed in the
    // same bank visit that evicted it, and must still read back intact.
    let mut buf = [0u8; 4096];
    let cost = charged(&|| {
        let mut out = [0u8; 4096];
        n0.read(page, &mut out).unwrap();
        assert!(
            out == [0x11u8; 4096],
            "evicted dirty lines read back intact"
        );
    });
    assert_eq!(
        cost,
        lat.global_read_ns + 63 * tail + 32 * lat.writeback_line_ns
    );
    let cs = n0.cache_stats();
    assert_eq!((cs.misses, cs.hits), (64, 0));
    assert_eq!((cs.evictions, cs.writebacks), (96, 64));

    // An unaligned write over non-resident lines 0..=4: partial edge
    // lines fill (full latency, then tail), the three full lines between
    // them allocate; every install evicts a clean line at no cost.
    let addr = rack_sim::GAddr(page.0 + 10);
    let cost = charged(&|| n0.write(addr, &[0x22u8; 300]).unwrap());
    assert_eq!(cost, lat.global_read_ns + tail + 3 * lat.cache_hit_ns);
    let cs = n0.cache_stats();
    assert_eq!((cs.misses, cs.allocs, cs.evictions), (66, 67, 101));

    // Writeback finds exactly those five lines dirty; the flush after it
    // finds nothing dirty and drops the 32 resident lines.
    let cost = charged(&|| n0.writeback(page, 4096));
    assert_eq!(cost, lat.writeback_line_ns + 4 * tail);
    let cost = charged(&|| n0.flush(page, 4096));
    assert_eq!(
        cost,
        lat.invalidate_line_ns + 31 * lat.invalidate_extra_line_ns
    );
    let cs = n0.cache_stats();
    assert_eq!((cs.writebacks, cs.invalidations), (69, 32));

    rack.global().read_bytes(page, &mut buf).unwrap();
    assert!(buf[..10].iter().all(|&b| b == 0x11));
    assert!(buf[10..310].iter().all(|&b| b == 0x22));
    assert!(buf[310..].iter().all(|&b| b == 0x11));
    assert_eq!(n0.stats().snapshot().total_charged_ns(), n0.clock().now());
}

/// Lines in the seeded stream's working set: a quarter of one bank of
/// the default cache, so no line is ever evicted.
const STREAM_LINES: u64 = 2048;

#[test]
fn seeded_line_stream_charges_exactly_its_hits_misses_and_maintenance() {
    // One thread's op stream over a warm 2 048-line working set: ~1/8
    // 8-byte writes, the rest 8-byte reads, and before an op, with
    // probability 1 - hit/1000, an invalidate that makes it miss. The
    // test keeps its own resident and dirty line sets; the cache must
    // charge exactly what they predict, and a closing writeback of the
    // whole set must find exactly the lines the test saw dirtied.
    const OPS: u64 = 200_000;
    let lat = LatencyModel::hccs();
    let tail = lat.transfer_ns(LINE_SIZE).max(1);
    for hit_permille in [950, 500] {
        let global = GlobalMemory::new(STREAM_LINES as usize * LINE_SIZE);
        let cache = NodeCache::new(CacheConfig::default());
        let mut buf = [0u8; 8];
        let mut warm = 0;
        for line in 0..STREAM_LINES {
            let addr = GAddr(line * LINE_SIZE as u64);
            warm += cache.read(&global, &lat, addr, &mut buf).unwrap();
        }
        assert_eq!(warm, STREAM_LINES * lat.global_read_ns);

        let mut resident = vec![true; STREAM_LINES as usize];
        let mut dirty = vec![false; STREAM_LINES as usize];
        let (mut hits, mut misses, mut invalidations) = (0u64, 0u64, 0u64);
        let mut charged = 0;
        let mut rng = SplitMix64::new(0xCAC4E_5CA1E);
        for _ in 0..OPS {
            let line = rng.next_below(STREAM_LINES);
            let (addr, at) = (GAddr(line * LINE_SIZE as u64), line as usize);
            if rng.next_below(1000) >= hit_permille {
                charged += cache.invalidate(&lat, addr, 8);
                if std::mem::take(&mut resident[at]) {
                    invalidations += 1;
                    dirty[at] = false;
                }
            }
            let write = rng.next_below(8) == 0;
            charged += if write {
                cache.write(&global, &lat, addr, &line.to_le_bytes())
            } else {
                cache.read(&global, &lat, addr, &mut buf)
            }
            .unwrap();
            if std::mem::replace(&mut resident[at], true) {
                hits += 1;
            } else {
                misses += 1;
            }
            dirty[at] |= write;
        }
        let dirty_lines = dirty.iter().filter(|&&d| d).count() as u64;
        let span = STREAM_LINES as usize * LINE_SIZE;
        charged += cache.writeback(&global, &lat, GAddr(0), span);

        assert!(
            dirty_lines > 1 && invalidations > 0,
            "every term is exercised"
        );
        assert_eq!(
            charged,
            hits * lat.cache_hit_ns
                + misses * lat.global_read_ns
                + invalidations * lat.invalidate_line_ns
                + lat.writeback_line_ns
                + (dirty_lines - 1) * tail,
            "hit_permille={hit_permille}"
        );
        let cs = cache.stats();
        assert_eq!(
            (cs.hits, cs.misses, cs.invalidations, cs.writebacks),
            (hits, STREAM_LINES + misses, invalidations, dirty_lines)
        );
        assert_eq!(cs.evictions, 0, "the working set fits");
    }
}

#[test]
fn page_span_sweep_charges_its_closed_form_per_phase() {
    // 24 sweeps over 256 resident-sized 4 KiB pages, each three phases:
    // a cold read of every page (the first line of a page at full fabric
    // latency, the other 63 at the bandwidth tail), a full-page write
    // (64 hits) plus its writeback (one full-latency line, 63 tails), and
    // the invalidation of every page (one instruction, 63 extra lines).
    const PAGES: u64 = 256;
    const PAGE: usize = 4096;
    const ROUNDS: u64 = 24;
    let lat = LatencyModel::hccs();
    let tail = lat.transfer_ns(LINE_SIZE).max(1);
    let lines = (PAGE / LINE_SIZE) as u64;
    let global = GlobalMemory::new(PAGES as usize * PAGE);
    let cache = NodeCache::new(CacheConfig::default());
    let page = |p: u64| GAddr(p * PAGE as u64);
    let mut buf = vec![0u8; PAGE];
    let mut charged = [0u64; 3];
    for round in 0..ROUNDS {
        for p in 0..PAGES {
            charged[0] += cache.read(&global, &lat, page(p), &mut buf).unwrap();
            let last = round.checked_sub(1).map_or(0, |r| r as u8);
            assert!(buf.iter().all(|&b| b == last), "last round's writeback");
        }
        let payload = vec![round as u8; PAGE];
        for p in 0..PAGES {
            charged[1] += cache.write(&global, &lat, page(p), &payload).unwrap()
                + cache.writeback(&global, &lat, page(p), PAGE);
        }
        for p in 0..PAGES {
            charged[2] += cache.invalidate(&lat, page(p), PAGE);
        }
    }
    let per_page = [
        lat.global_read_ns + (lines - 1) * tail,
        lines * lat.cache_hit_ns + lat.writeback_line_ns + (lines - 1) * tail,
        lat.invalidate_line_ns + (lines - 1) * lat.invalidate_extra_line_ns,
    ];
    assert_eq!(charged, per_page.map(|ns| ROUNDS * PAGES * ns));
    let cs = cache.stats();
    let line_visits = ROUNDS * PAGES * lines;
    assert_eq!(
        (cs.misses, cs.hits, cs.writebacks, cs.invalidations),
        (line_visits, line_visits, line_visits, line_visits)
    );
}

/// Committed-op counter for the node-replicated cost tests.
#[derive(Debug, Default, Clone)]
struct OpCount(u64);

impl SyncState for OpCount {
    fn apply(&mut self, _op: &[u8]) {
        self.0 += 1;
    }
}

/// A 16-slot ring of 48-byte entries: exactly 12 cache lines.
fn nr_ring_cell(rack: &Rack) -> std::sync::Arc<SyncCell<OpCount>> {
    SyncCell::alloc(
        rack.global(),
        "nr_cost",
        SyncCellConfig::new(4, SyncPolicy::NodeReplicated).with_log(16, 48),
        OpCount::default(),
    )
    .unwrap()
}

/// `(simulated ns, global reads)` one `sync_replica` costs `node`.
fn sync_replica_cost(cell: &SyncCell<OpCount>, node: &NodeCtx, expect: u64) -> (u64, u64) {
    let (t, reads) = (node.clock().now(), node.stats().snapshot().global_reads);
    assert_eq!(cell.sync_replica(node).unwrap(), expect);
    (
        node.clock().now() - t,
        node.stats().snapshot().global_reads - reads,
    )
}

#[test]
fn replica_catch_up_charges_one_burst_per_contiguous_log_run() {
    let rack = Rack::new(RackConfig::n_node(4).with_global_mem(1 << 20));
    let (writer, reader) = (rack.node(0), rack.node(3));
    let lat = reader.latency().clone();
    let cell = nr_ring_cell(&rack);
    let tail_ns = lat.transfer_ns(LINE_SIZE).max(1);
    // The tail and head probes every catch-up pays before the range read.
    let probes = 2 * lat.global_read_ns;
    // One run of `lines` cache lines, all resident from the lap before.
    let run = |lines: u64| {
        lat.invalidate_line_ns
            + (lines - 1) * lat.invalidate_extra_line_ns
            + lat.global_read_ns
            + (lines - 1) * tail_ns
    };
    let write = |k: u64| {
        for i in 0..k {
            cell.update(&writer, &i.to_le_bytes()).unwrap();
        }
    };

    assert_eq!(sync_replica_cost(&cell, &reader, 0).1, 1, "tail probe only");
    // First lap: nothing resident, so the invalidate drops (and costs)
    // nothing; the read is one burst over the ring's 12 lines.
    write(16);
    assert_eq!(
        sync_replica_cost(&cell, &reader, 16),
        (
            probes + lat.global_read_ns + 11 * tail_ns + 16 * lat.local_write_ns,
            2 + 1
        )
    );
    // Second lap over the same slots: 16 contiguous entries, 12 resident
    // lines, one invalidate and one global read for the lot.
    cell.gc(&writer).unwrap();
    write(16);
    assert_eq!(
        sync_replica_cost(&cell, &reader, 32),
        (probes + run(12) + 16 * lat.local_write_ns, 2 + 1)
    );
    // Park the tail mid-ring, then catch up 16 entries across the wrap:
    // two runs of 8 entries (6 lines each), two global reads.
    cell.gc(&writer).unwrap();
    write(8);
    assert_eq!(
        sync_replica_cost(&cell, &reader, 40),
        (probes + run(6) + 8 * lat.local_write_ns, 2 + 1)
    );
    cell.gc(&writer).unwrap();
    write(16);
    assert_eq!(
        sync_replica_cost(&cell, &reader, 56),
        (probes + 2 * run(6) + 16 * lat.local_write_ns, 2 + 2)
    );
    // Caught up: the replica serves reads with no fabric traffic at all.
    let before = reader.stats().snapshot();
    assert_eq!(cell.read_local(&reader, |c| c.0).unwrap(), 56);
    let after = reader.stats().snapshot();
    assert_eq!(after.global_reads, before.global_reads);
    assert_eq!(
        reader.stats().snapshot().total_charged_ns(),
        reader.clock().now()
    );
}

#[test]
fn recovery_drain_charges_one_burst_per_contiguous_log_run() {
    let rack = Rack::new(RackConfig::n_node(4).with_global_mem(1 << 20));
    let (writer, survivor) = (rack.node(0), rack.node(1));
    let lat = survivor.latency().clone();
    // A 16-slot ring of 48-byte entries (12 lines). Node 0 owns the
    // delegation, so node 3's crash costs the survivor exactly the
    // committed-tail drain: no re-election.
    let cell = SyncCell::alloc(
        rack.global(),
        "drain_cost",
        SyncCellConfig::new(4, SyncPolicy::Delegated).with_log(16, 48),
        OpCount::default(),
    )
    .unwrap();
    let log = cell.op_log();
    rack.faults().crash_node(rack_sim::NodeId(3), 0);
    let tail_ns = lat.transfer_ns(LINE_SIZE).max(1);
    let run = |lines: u64| {
        lat.invalidate_line_ns
            + (lines - 1) * lat.invalidate_extra_line_ns
            + lat.global_read_ns
            + (lines - 1) * tail_ns
    };
    // Entries committed to the log that no fold has applied yet (as a
    // combiner that died after its batch append leaves them).
    let mut seq = 0u32;
    let mut commit = |k: u32| {
        let framed: Vec<Vec<u8>> = (0..k)
            .map(|_| {
                seq += 1;
                [0u32.to_le_bytes(), seq.to_le_bytes()].concat()
            })
            .collect();
        log.append_batch(&writer, &framed).unwrap();
    };
    // `(simulated ns, global reads)` the survivor's recovery costs.
    let recover = |applied: u64| {
        let (t, reads) = (
            survivor.clock().now(),
            survivor.stats().snapshot().global_reads,
        );
        assert!(!cell.on_node_crash(&survivor, rack_sim::NodeId(3)).unwrap());
        assert_eq!(cell.fold_position().0, applied);
        (
            survivor.clock().now() - t,
            survivor.stats().snapshot().global_reads - reads,
        )
    };

    assert_eq!(recover(0), (lat.global_read_ns, 1), "tail probe only");
    // First lap: nothing resident, so the invalidate costs nothing; one
    // burst over all 12 lines.
    commit(16);
    assert_eq!(
        recover(16),
        (
            lat.global_read_ns + lat.global_read_ns + 11 * tail_ns + 16 * lat.local_write_ns,
            1 + 1
        )
    );
    // Second lap over the same, now resident, lines: one invalidate and
    // one burst for all 16 entries. A hole (an appender that died before
    // its commit flag) is skipped without an apply.
    cell.gc(&writer).unwrap();
    commit(16);
    rack.global()
        .store_u64(log.base().offset(5 * 48), 0)
        .unwrap();
    assert_eq!(
        recover(32),
        (
            lat.global_read_ns + run(12) + 15 * lat.local_write_ns,
            1 + 1
        )
    );
    assert_eq!(cell.fold_position(), (32, 1));
    // Park the tail mid-ring, then drain 16 entries across the wrap: two
    // runs of 8 entries (6 lines each), two bursts.
    cell.gc(&writer).unwrap();
    commit(8);
    assert_eq!(
        recover(40),
        (lat.global_read_ns + run(6) + 8 * lat.local_write_ns, 1 + 1)
    );
    cell.gc(&writer).unwrap();
    commit(16);
    assert_eq!(
        recover(56),
        (
            lat.global_read_ns + 2 * run(6) + 16 * lat.local_write_ns,
            1 + 2
        )
    );
    assert_eq!(cell.peek(|c| c.0), 56 - 1);
    assert_eq!(
        survivor.stats().snapshot().total_charged_ns(),
        survivor.clock().now()
    );
}

#[test]
fn combine_scans_and_marks_the_publication_slots_in_one_span_each() {
    let rack = Rack::new(RackConfig::n_node(4).with_global_mem(1 << 20));
    let cell = nr_ring_cell(&rack);
    for n in 1..4 {
        cell.nr_publish(&rack.node(n), &[n as u8]).unwrap();
    }
    let combiner = rack.node(0);
    rack.enable_tracing();
    assert_eq!(cell.nr_combine(&combiner).unwrap(), 3);
    rack.disable_tracing();

    let events = combiner.stats().trace().events();
    let count = |kind: OpKind, class: AddrClass| {
        events
            .iter()
            .filter(|e| e.kind == kind && e.addr_class == class)
            .count()
    };
    assert_eq!(
        count(OpKind::Read, AddrClass::Global),
        1,
        "one burst reads every header line"
    );
    assert_eq!(
        count(OpKind::Invalidate, AddrClass::Global),
        2,
        "one invalidate ahead of the header read, one ahead of the batch's entry writes"
    );
    assert_eq!(
        count(OpKind::Flush, AddrClass::Global),
        2,
        "one flush commits the batch, one publishes all three marks"
    );
    for n in 1..4u64 {
        assert_eq!(cell.nr_poll(&rack.node(n as usize)).unwrap(), Some(n - 1));
    }
}

#[test]
fn page_cache_publishes_subsystem_counters() {
    let rack = small_rack();
    let n0 = rack.node(0);
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
    let cache = SharedPageCache::alloc(rack.global(), alloc, epochs, RetireList::new()).unwrap();

    let key = SharedPageCache::key(1, 0);
    assert!(cache.lookup(&n0, key).unwrap().is_none()); // miss
    cache
        .insert_page(&n0, key, &vec![7u8; flacos_mem::PAGE_SIZE], true)
        .unwrap();
    assert!(cache.lookup(&n0, key).unwrap().is_some()); // hit
    assert!(cache.lookup(&n0, key).unwrap().is_some()); // hit

    let snap = n0.stats().snapshot();
    let get = |name: &str| {
        snap.subsystems
            .iter()
            .find(|c| c.subsystem == "page_cache" && c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    assert_eq!(get("miss"), 1);
    assert_eq!(get("hit"), 2);
    assert_eq!(get("insert"), 1);
}

#[test]
fn ipc_channel_publishes_message_counters() {
    let rack = small_rack();
    let alloc = GlobalAllocator::new(rack.global().clone());
    let (mut a, mut b) =
        FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(1)).unwrap();

    a.send(b"ping").unwrap();
    a.send(&vec![3u8; 4096]).unwrap();
    b.try_recv().unwrap();
    b.try_recv().unwrap();

    let sender = rack.node(0).stats().snapshot();
    let receiver = rack.node(1).stats().snapshot();
    let get = |snap: &rack_sim::StatsSnapshot, name: &str| {
        snap.subsystems
            .iter()
            .find(|c| c.subsystem == "ipc" && c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    assert_eq!(get(&sender, "msgs_sent"), 2);
    assert_eq!(get(&sender, "bytes_sent"), 4 + 4096);
    assert_eq!(get(&receiver, "msgs_recv"), 2);

    // Rack-wide merge sums the per-node registries.
    let merged = rack.metrics_report().merged;
    assert_eq!(get(&merged, "msgs_sent"), 2);
    assert_eq!(get(&merged, "msgs_recv"), 2);
}

/// `(simulated ns, global reads, global atomics, global-memory span
/// reads)` `survivor`'s recovery after node 3's crash costs.
fn nr_recovery_cost(cell: &SyncCell<OpCount>, rack: &Rack, takeover: bool) -> [u64; 4] {
    let survivor = rack.node(1);
    let (t, before) = (survivor.clock().now(), survivor.stats().snapshot());
    rack.enable_tracing();
    assert_eq!(
        cell.on_node_crash(&survivor, rack_sim::NodeId(3)).unwrap(),
        takeover
    );
    rack.disable_tracing();
    let after = survivor.stats().snapshot();
    let spans = survivor
        .stats()
        .trace()
        .events()
        .iter()
        .filter(|e| e.kind == OpKind::Read && e.addr_class == AddrClass::Global)
        .count() as u64;
    assert_eq!(after.total_charged_ns(), survivor.clock().now());
    [
        survivor.clock().now() - t,
        after.global_reads - before.global_reads,
        after.global_atomics - before.global_atomics,
        spans,
    ]
}

#[test]
fn recovering_a_stranded_publication_from_a_free_role_reads_no_log_window() {
    let rack = Rack::new(RackConfig::n_node(4).with_global_mem(1 << 20));
    let cell = nr_ring_cell(&rack);
    let lat = rack.node(1).latency().clone();
    let flush = lat.writeback_line_ns + lat.invalidate_line_ns;
    // Node 3 publishes, then dies with the combiner role free. Nothing is
    // resident in the survivor's cache, so no invalidate costs anything.
    cell.nr_publish(&rack.node(3), &[3]).unwrap();
    rack.faults().crash_node(rack_sim::NodeId(3), 0);
    let [ns, reads, atomics, spans] = nr_recovery_cost(&cell, &rack, false);
    let expected = lat.global_read_ns // the committed-tail probe
        + lat.global_atomic_ns // the claim CAS
        // One burst over the four header lines.
        + lat.global_read_ns
        + 3 * lat.transfer_ns(LINE_SIZE)
        // The append: tail and head loads, the tail CAS, the entry's
        // three cached writes (the first fills its line), one flush.
        + 2 * lat.global_read_ns
        + lat.global_atomic_ns
        + lat.global_read_ns
        + 2 * lat.cache_hit_ns
        + flush
        + lat.cache_hit_ns // the mark, a hit on the scanned header line
        + flush // and its flush
        + lat.global_write_ns // the release
        + lat.global_read_ns // the fold: one burst to the appended tail
        + lat.local_write_ns; // and one apply
    assert_eq!(ns, expected);
    assert_eq!(ns, 5_388, "HCCS figure");
    // Probe, header burst, append's tail and head, fold.
    assert_eq!(reads, 5);
    assert_eq!(atomics, 2, "claim, tail CAS");
    assert_eq!(spans, 2, "header burst and fold: no log-window read");
    rack.faults().restart_node(rack_sim::NodeId(3), 0);
    assert_eq!(cell.nr_poll(&rack.node(3)).unwrap(), Some(0));
    assert_eq!(cell.peek(|c| c.0), 1);
    assert_eq!(cell.pending_publishers(&rack.node(0)).unwrap(), []);
}

#[test]
fn recovering_after_a_combiner_died_past_its_append_reads_the_log_window_once() {
    let rack = Rack::new(RackConfig::n_node(4).with_global_mem(1 << 20));
    let cell = nr_ring_cell(&rack);
    cell.nr_publish(&rack.node(2), &[2]).unwrap();
    assert_eq!(
        cell.nr_combine_crash_after_append(&rack.node(3)).unwrap(),
        1
    );
    rack.faults().crash_node(rack_sim::NodeId(3), 0);
    let [_, _, atomics, spans] = nr_recovery_cost(&cell, &rack, true);
    assert_eq!(atomics, 2, "the failed CAS from free, the takeover CAS");
    // The dead combiner's own header rides the header burst.
    assert_eq!(
        spans, 3,
        "the committed-tail fold, the header burst and one window pass"
    );
    assert_eq!(cell.nr_poll(&rack.node(2)).unwrap(), Some(0));
    assert_eq!(cell.committed(&rack.node(0)).unwrap(), 1, "no re-append");
    assert_eq!(cell.peek(|c| c.0), 1);
}

#[test]
fn an_idle_self_combine_reads_every_header_line_in_one_burst() {
    let rack = Rack::new(RackConfig::n_node(8).with_global_mem(1 << 20));
    let cell = SyncCell::alloc(
        rack.global(),
        "nr_idle",
        SyncCellConfig::new(8, SyncPolicy::NodeReplicated).with_log(16, 48),
        OpCount::default(),
    )
    .unwrap();
    let node = rack.node(0);
    let lat = node.latency().clone();
    // `(simulated ns, global reads, global bytes)` of one idle combine.
    let idle = || {
        let (t, before) = (node.clock().now(), node.stats().snapshot());
        assert_eq!(cell.nr_combine(&node).unwrap(), 0);
        let after = node.stats().snapshot();
        [
            node.clock().now() - t,
            after.global_reads - before.global_reads,
            after.global_bytes - before.global_bytes,
        ]
    };
    // The claim CAS, one burst over the eight header lines, the release.
    let burst = lat.global_read_ns + 7 * lat.transfer_ns(LINE_SIZE);
    let bare = lat.global_atomic_ns + burst + lat.global_write_ns;
    let bytes = (8 * LINE_SIZE + 8) as u64; // the header lines, the release word
    assert_eq!(idle(), [bare, 1, bytes]);
    // The scan left the header lines resident: the next one invalidates
    // all eight first.
    let warm = lat.invalidate_line_ns + 7 * lat.invalidate_extra_line_ns;
    assert_eq!(idle(), [bare + warm, 1, bytes]);
    assert_eq!([bare, bare + warm], [1_621, 1_665], "HCCS figures");
}

/// `(name, value)` of every `sync/*` counter registered on `node`, in
/// snapshot (name) order.
fn sync_counters(node: &NodeCtx) -> Vec<(String, u64)> {
    node.stats()
        .snapshot()
        .subsystems
        .into_iter()
        .filter(|c| c.subsystem == "sync")
        .map(|c| (c.name, c.value))
        .collect()
}

#[test]
fn sync_counters_count_each_op_once_on_the_issuing_node() {
    let rack = Rack::new(RackConfig::n_node(4).with_global_mem(4 << 20));
    let cell = |policy| {
        SyncCell::alloc(
            rack.global(),
            "ctr",
            SyncCellConfig::new(4, policy).with_log(64, 48),
            OpCount::default(),
        )
        .unwrap()
    };
    // Node 1: three updates and two reads on each of three backends.
    for policy in [SyncPolicy::Lock, SyncPolicy::Replicated, SyncPolicy::Rcu] {
        let c = cell(policy);
        for i in 0..3u8 {
            c.update(&rack.node(1), &[i]).unwrap();
        }
        for _ in 0..2 {
            c.read(&rack.node(1), |s| s.0).unwrap();
        }
    }
    // Delegated, owned by node 0: node 2's ops ship to the owner and
    // queue (depth 1, 2, 3) until the owner runs one, which drains the
    // queue; node 2's next op finds depth 1.
    let d = cell(SyncPolicy::Delegated);
    d.update(&rack.node(2), &[0]).unwrap();
    d.read(&rack.node(2), |s| s.0).unwrap();
    d.update(&rack.node(2), &[1]).unwrap();
    d.update(&rack.node(0), &[2]).unwrap();
    d.update(&rack.node(2), &[3]).unwrap();
    // Node replication: node 0 combines three publications in one batch
    // and then runs an idle combine; node 3 self-combines one update and
    // reads its replica; node 1's idle combine registers its counter at 0.
    let nr = cell(SyncPolicy::NodeReplicated);
    for n in 1..4 {
        nr.nr_publish(&rack.node(n), &[n as u8]).unwrap();
    }
    assert_eq!(nr.nr_combine(&rack.node(0)).unwrap(), 3);
    assert_eq!(nr.nr_combine(&rack.node(0)).unwrap(), 0);
    nr.update(&rack.node(3), &[9]).unwrap();
    assert_eq!(nr.read_local(&rack.node(3), |s| s.0).unwrap(), 4);
    assert_eq!(nr.nr_combine(&rack.node(1)).unwrap(), 0);

    let want = |pairs: &[(&str, u64)]| {
        pairs
            .iter()
            .map(|&(n, v)| (n.to_string(), v))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        sync_counters(&rack.node(0)),
        want(&[("ops_delegated", 1), ("ops_node_replicated", 3)])
    );
    assert_eq!(
        sync_counters(&rack.node(1)),
        want(&[
            ("ops_lock", 5),
            ("ops_node_replicated", 0),
            ("ops_rcu", 5),
            ("ops_replicated", 5),
        ])
    );
    assert_eq!(
        sync_counters(&rack.node(2)),
        want(&[
            ("delegation_queue_depth", 1 + 2 + 3 + 1),
            ("delegation_queued", 4),
            ("ops_delegated", 4),
        ])
    );
    assert_eq!(
        sync_counters(&rack.node(3)),
        want(&[("ops_node_replicated", 2)])
    );
}

/// `[global reads, global writes, simulated ns]` `node` spends in `f`.
fn global_cost(node: &NodeCtx, f: impl FnOnce() -> Result<(), SimError>) -> [u64; 3] {
    let (t, before) = (node.clock().now(), node.stats().snapshot());
    f().unwrap();
    let after = node.stats().snapshot();
    [
        after.global_reads - before.global_reads,
        after.global_writes - before.global_writes,
        node.clock().now() - t,
    ]
}

#[test]
fn address_space_access_walks_each_page_once() {
    let rack = small_rack();
    let space = AddressSpace::alloc(
        7,
        rack.global(),
        GlobalAllocator::new(rack.global().clone()),
        EpochManager::alloc(rack.global(), rack.node_count()).unwrap(),
        RetireList::new(),
    )
    .unwrap();
    for vpn in 0..2 {
        let frame = rack.global().alloc(PAGE_SIZE, PAGE_SIZE).unwrap();
        space
            .map(&rack.node(0), vpn, Pte::new(PhysFrame::Global(frame), true))
            .unwrap();
    }
    let n1 = rack.node(1);
    let lat = n1.latency().clone();
    let ring = AccessRing::new(16, 1);
    space.attach_sampler(Some(ring.clone()));
    let vpns = || ring.drain().iter().map(|a| a.vpn).collect::<Vec<_>>();
    // One RCU read guard per access (epoch load, slot announce, slot
    // clear) and one walk per page (root load and four level reads).
    let guard = lat.global_read_ns + 2 * lat.global_write_ns;
    let walk = 5 * lat.global_read_ns;

    // One full line at the top of page 0: a write-allocate hit and its
    // writeback. Walking each page twice (a permission pass, then the
    // copy) would cost 12 reads, 5 writes and 7 818 ns here.
    let one_page_write = global_cost(&n1, || space.write(&n1, VirtAddr(0), &[1; 64]));
    assert_eq!(
        one_page_write[2],
        guard + walk + lat.cache_hit_ns + lat.writeback_line_ns
    );
    assert_eq!(one_page_write, [6, 3, 3_978]);
    assert_eq!(vpns(), [0], "each page offered to the sampler once");

    // Page 0's last line and 32 bytes of page 1 (walking twice: 24 / 10 /
    // 16 338).
    let straddle = VirtAddr(PAGE_SIZE as u64 - 64);
    let two_page_write = global_cost(&n1, || space.write(&n1, straddle, &[2; 96]));
    assert_eq!(two_page_write, [11, 4, 7_338]);
    assert_eq!(vpns(), [0, 1]);

    // One guard for both pages (a guard per page: 14 / 4 / 8 700).
    let mut buf = [0u8; 96];
    let two_page_read = global_cost(&n1, || space.read(&n1, straddle, &mut buf));
    assert_eq!(buf, [2; 96]);
    assert_eq!(two_page_read, [13, 2, 7_380]);
    assert_eq!(vpns(), [0, 1]);

    // A one-page read always walked once.
    let mut buf = [0u8; 64];
    let one_page_read = global_cost(&n1, || space.read(&n1, VirtAddr(0), &mut buf));
    assert_eq!(buf, [1; 64]);
    assert_eq!(one_page_read, [7, 2, 4_350]);
    assert_eq!(vpns(), [0]);
}

/// One node driven through every kind of access the snapshot accounts
/// for: cached reads and writes (hits, misses, allocations, a burst),
/// writebacks, invalidates, flushes, capacity evictions of dirty lines,
/// a `flush_all`, uncached loads and stores, fabric atomics, local
/// accesses, compute charges, a message each way, zero-length spans and
/// failed ops. A four-line-per-bank cache makes the evictions happen.
fn scripted_node_snapshot() -> (rack_sim::StatsSnapshot, u64) {
    let mut config = RackConfig::small_test();
    config.cache = rack_sim::CacheConfig {
        max_lines: 16,
        banks: 4,
    };
    let rack = Rack::new(config);
    let (n0, n1) = (rack.node(0), rack.node(1));
    let base = rack.global().alloc(64 * LINE_SIZE, LINE_SIZE).unwrap();
    let at = |line: u64| base.offset(line * LINE_SIZE as u64);

    // Cached reads: a miss, a hit, a four-line burst of misses.
    n0.read_u64(at(0)).unwrap();
    n0.read_u64(at(0)).unwrap();
    n0.read(at(4), &mut [0u8; 4 * LINE_SIZE]).unwrap();
    // Cached writes: a hit, a full-line allocation, a partial-line miss.
    n0.write_u64(at(0), 1).unwrap();
    n0.write(at(8), &[7; LINE_SIZE]).unwrap();
    n0.write(at(9).offset(8), &[3; 16]).unwrap();
    // Maintenance: a writeback over the dirty lines, an invalidate that
    // discards a dirty line, a flush of one dirty line.
    n0.writeback(at(0), 16 * LINE_SIZE);
    n0.write_u64(at(0), 2).unwrap();
    n0.invalidate(at(0), LINE_SIZE);
    n0.write_u64(at(1), 5).unwrap();
    n0.flush(at(1), LINE_SIZE);
    // Capacity: dirty eight lines, then read 32 more through the same
    // banks, evicting (and writing back) the dirty ones.
    for line in 16..24 {
        n0.write_u64(at(line), line).unwrap();
    }
    n0.read(at(32), &mut [0u8; 32 * LINE_SIZE]).unwrap();
    n0.write_u64(at(40), 4).unwrap();
    n0.flush_all();
    // Uncached and atomic fabric accesses.
    n0.load_uncached_u64(at(50)).unwrap();
    n0.store_uncached_u64(at(50), 9).unwrap();
    n0.compare_exchange_u64(at(51), 0, 1).unwrap();
    n0.fetch_add_u64(at(51), 2).unwrap();
    // Local memory, compute, one message each way.
    let local = n0.local_alloc(LINE_SIZE).unwrap();
    n0.local_write(local, &[1; 16]).unwrap();
    n0.local_read(local, &mut [0u8; 8]).unwrap();
    n0.charge(123);
    n0.charge(0);
    n0.send(n1.id(), 9, vec![0; 40]).unwrap();
    n1.send(n0.id(), 9, vec![1; 10]).unwrap();
    n0.try_recv(9).unwrap();
    // Zero-length spans are ops that cost nothing.
    n0.read(at(0), &mut []).unwrap();
    n0.write(at(0), &[]).unwrap();
    n0.writeback(at(0), 0);
    n0.invalidate(at(0), 0);
    n0.flush(at(0), 0);
    // Failed ops record nothing of their own: an out-of-bounds read,
    // write and uncached load, and a read that fails on a poisoned line
    // after its first line hit (that hit is still counted).
    let past = GAddr(rack.global().capacity() as u64);
    assert!(n0.read_u64(past).is_err());
    assert!(n0.write_u64(past, 1).is_err());
    assert!(n0.load_uncached_u64(past).is_err());
    n0.read_u64(at(60)).unwrap();
    rack.global().poison(at(61), 8);
    assert!(n0.read(at(60), &mut [0u8; 2 * LINE_SIZE]).is_err());
    (n0.stats().snapshot(), n0.clock().now())
}

/// A histogram snapshot from its non-empty buckets and summary.
fn hist(buckets: &[(usize, u64)], count: u64, total_ns: u64, max_ns: u64) -> HistogramSnapshot {
    let mut h = HistogramSnapshot {
        count,
        total_ns,
        max_ns,
        ..HistogramSnapshot::default()
    };
    for &(i, n) in buckets {
        h.buckets[i] = n;
    }
    h
}

#[test]
fn scripted_node_snapshot_pins_every_field() {
    let (snap, clock) = scripted_node_snapshot();
    let expected = rack_sim::StatsSnapshot {
        global_reads: 7,
        global_writes: 16,
        global_atomics: 2,
        local_accesses: 2,
        local_bytes: 24,
        global_bytes: 2520,
        bytes_copied: 2544,
        messages_sent: 1,
        message_bytes: 40,
        cache_hits: 4,
        cache_misses: 49,
        cache_allocs: 1,
        cache_writebacks: 13,
        cache_invalidations: 18,
        cache_evictions: 31,
        cache_coalesced_fills: 0,
        // In `CostClass::ALL` order.
        histograms: [
            hist(&[(7, 2)], 2, 175, 90),
            hist(&[(0, 1), (5, 1), (9, 3), (12, 1)], 6, 3960, 2493),
            hist(&[(0, 1), (5, 3), (9, 11)], 15, 5334, 480),
            hist(&[(9, 2)], 2, 900, 480),
            hist(&[(10, 2)], 2, 1400, 700),
            hist(&[(0, 3), (5, 1), (8, 1), (9, 1), (10, 1)], 7, 1266, 720),
            hist(&[(0, 1), (10, 1)], 2, 702, 702),
            hist(&[(0, 1), (7, 1)], 2, 123, 123),
        ],
        subsystems: Vec::new(),
    };
    for (class, (got, want)) in CostClass::ALL
        .iter()
        .zip(snap.histograms.iter().zip(&expected.histograms))
    {
        assert_eq!(got, want, "{class:?} histogram");
    }
    assert_eq!(snap, expected);
    // The clock carries every charge but the send's flight time.
    assert_eq!(clock, 13_158);
    assert_eq!(clock, snap.total_charged_ns() - 702);
}
