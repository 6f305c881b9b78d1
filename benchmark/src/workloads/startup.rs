//! `startup-fanout`: serverless function starts on an 8-node rack.
//!
//! A catalogue of 64 content-addressed images (256 pages in four
//! 64-page layers; base and middle layers are shared by content across
//! images) is drawn zipf 0.9. **Closed loop**: each of the eight nodes
//! starts containers back-to-back through
//! `ContainerRuntime::start_container` → `flac-store` → the
//! node-replicated chunk index → `flacos-mem` dedup / `flacos-fs`. The
//! serial driver always runs the node whose clock is earliest, so the
//! interleaving is the one simulated time dictates.
//!
//! A warm rack has nothing left to fetch, so the workload runs in
//! **generations**: each generation is a complete fresh world
//! (catalogue generated and published, rack booted, store and runtimes
//! built) followed by 16 starts on every node. The first generation is
//! the warm-up; each later one is one wall-clock segment, and every
//! generation's set-up is one `setup_s` sample.
//!
//! Baseline: the same start sequence with a private (not rack-shared)
//! store per node, so every node is cold for everything it starts.

use super::{common_layers, fingerprint, median_secs, EndToEnd, Layers, RunConfig, NODES};
use crate::counters::{snapshot, Delta};
use crate::metrics::{ratio, LayerValues};
use crate::stats::{segment_rate_of, summarize};
use crate::trace::{Layer as TraceLayer, Span, TraceReport, Tracer};
use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig, StoreStats, CHUNK_SIZE};
use flacos::FlacRack;
use flacos_fs::memfs::MemFs;
use flacos_mem::dedup::PageDeduper;
use rack_sim::{RackConfig, SimError, SplitMix64, Zipf};
use serverless::image::{ContainerImage, Layer};
use serverless::registry::{ImageRegistry, RegistryConfig};
use serverless::runtime::{ContainerRuntime, StartupPath, StartupReport};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const IMAGES: usize = 64;
const LAYERS_PER_IMAGE: usize = 4;
const PAGES_PER_LAYER: u64 = 64;
const PAGES_PER_IMAGE: u64 = LAYERS_PER_IMAGE as u64 * PAGES_PER_LAYER;
const ZIPF_SKEW: f64 = 0.9;
const STARTS_PER_NODE: usize = 16;
const STARTS_PER_GENERATION: u64 = (NODES * STARTS_PER_NODE) as u64;
/// Measured generations at the reference `--seconds` (1 024 starts: a
/// start that is not hot moves a megabyte through the simulated caches,
/// about 5 ms of wall time).
const GENERATIONS: u64 = 8;
/// Fewest measured generations, whatever `--seconds` says: p99 needs
/// 1 000 samples.
const MIN_GENERATIONS: u64 = 8;
const BASELINE_GENERATIONS: u64 = 2;
const SHARDS: usize = 4;
/// 1 MiB images stand in for the paper's 4 GiB one; the backend
/// bandwidth is scaled by the same factor, so a fully cold start lands
/// in the paper's 21 s regime (`BackendConfig::paper_calibrated`).
const BANDWIDTH_SCALE: u64 = 4096;
/// Chunks and container roots audited after each generation.
const AUDIT_SAMPLES: usize = 16;
const GLOBAL_MEM_SHARED: usize = 128 << 20;
const GLOBAL_MEM_PRIVATE: usize = 256 << 20;

/// The image catalogue: image `i` stacks one of 4 base layers, one of
/// 16 middle layers and two layers of its own, so images overlap by
/// content without sharing a name.
fn catalogue(seed: u64) -> Vec<ContainerImage> {
    let s = seed.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF;
    (0..IMAGES as u64)
        .map(|i| ContainerImage {
            name: format!("fn-{i:02}"),
            layers: [
                s + i % 4,
                s + 100 + i % 16,
                s + 1_000 + 2 * i,
                s + 1_001 + 2 * i,
            ]
            .map(|layer_seed| Layer::generate(layer_seed, PAGES_PER_LAYER))
            .to_vec(),
        })
        .collect()
}

struct World {
    rack: FlacRack,
    images: Vec<ContainerImage>,
    backends: Arc<ShardedBackends>,
    /// One rack-shared store, or one private store per node (baseline).
    stores: Vec<Arc<ChunkStore>>,
    runtimes: Vec<ContainerRuntime>,
    boot: Duration,
}

impl World {
    fn store_of(&self, node: usize) -> &Arc<ChunkStore> {
        &self.stores[node % self.stores.len()]
    }
}

/// The complete set-up: catalogue generated and published, rack booted,
/// store(s) and per-node runtimes built.
fn setup(seed: u64, shared: bool) -> Result<World, SimError> {
    let images = catalogue(seed);
    let backends = Arc::new(ShardedBackends::uniform(
        SHARDS,
        BackendConfig::paper_calibrated(SHARDS, BANDWIDTH_SCALE),
    ));
    let registry = Arc::new(ImageRegistry::new(RegistryConfig::paper_calibrated()));
    for image in &images {
        image.publish(&backends);
        registry.push(image.clone());
    }
    let t = Instant::now();
    let rack = FlacRack::boot(RackConfig::n_node(NODES).with_global_mem(if shared {
        GLOBAL_MEM_SHARED
    } else {
        GLOBAL_MEM_PRIVATE
    }))?;
    let boot = t.elapsed();
    let new_store = || {
        ChunkStore::alloc(
            rack.sim().global(),
            backends.clone(),
            Arc::new(PageDeduper::new(rack.frames().clone())),
            StoreConfig::new(NODES),
        )
    };
    let stores = (0..if shared { 1 } else { NODES })
        .map(|_| new_store())
        .collect::<Result<Vec<_>, _>>()?;
    let runtimes = (0..NODES)
        .map(|n| {
            ContainerRuntime::new(
                rack.sim().node(n),
                MemFs::mount(rack.fs_shared().clone(), rack.sim().node(n)),
                registry.clone(),
                stores[n % stores.len()].clone(),
            )
        })
        .collect();
    Ok(World {
        rack,
        images,
        backends,
        stores,
        runtimes,
        boot,
    })
}

/// What a generation's starts produced — or, summed with
/// [`Starts::absorb`], what several generations' did.
#[derive(Debug, Default)]
struct Starts {
    latencies: Vec<u64>,
    reports: Vec<StartupReport>,
    failed: u64,
    delta: Delta,
    makespan_ns: u64,
    wall: Duration,
    store: StoreStats,
    dedup_interned: u64,
    dedup_hits: u64,
    fs_read_sim_ns: u64,
    fs_reads: u64,
    page_cache_hits: u64,
    page_cache_lookups: u64,
}

fn add_store_stats(sum: &mut StoreStats, s: &StoreStats) {
    sum.chunks_fetched += s.chunks_fetched;
    sum.bytes_fetched += s.bytes_fetched;
    sum.rack_hits += s.rack_hits;
    sum.coalesced += s.coalesced;
    sum.claims_lost += s.claims_lost;
}

impl Starts {
    fn absorb(&mut self, o: Starts) {
        self.latencies.extend(o.latencies);
        self.reports.extend(o.reports);
        self.failed += o.failed;
        self.delta.add(&o.delta);
        self.makespan_ns += o.makespan_ns;
        self.wall += o.wall;
        add_store_stats(&mut self.store, &o.store);
        self.dedup_interned += o.dedup_interned;
        self.dedup_hits += o.dedup_hits;
        self.fs_read_sim_ns += o.fs_read_sim_ns;
        self.fs_reads += o.fs_reads;
        self.page_cache_hits += o.page_cache_hits;
        self.page_cache_lookups += o.page_cache_lookups;
    }
}

/// Run one generation: 16 back-to-back starts on every node, then the
/// audit. Only the starts are inside the wall-clock segment and the
/// counter delta.
fn run_generation(
    w: &mut World,
    zipf: &Zipf,
    rng: &mut SplitMix64,
    generation: u64,
    tracer: &Tracer,
) -> Result<Starts, SimError> {
    let mut out = Starts::default();
    let mut remaining = [STARTS_PER_NODE; NODES];
    let mut started: Vec<HashSet<usize>> = vec![HashSet::new(); NODES];
    // When each layer's chunks were committed, per store: a node cannot
    // map a chunk before the simulated time at which its fetcher
    // committed it. The serial driver completes each start atomically,
    // so it imposes that wait itself (in a real rack the later starter
    // would coalesce onto the in-flight fetch and wait exactly so long).
    let mut ready_at: Vec<HashMap<u64, u64>> = vec![HashMap::new(); w.stores.len()];
    let mut containers = Vec::new();
    // Manifest resolution precedes the fetch phase of a start.
    let manifest_ns = RegistryConfig::paper_calibrated().manifest_ns;

    let before = snapshot(w.rack.sim());
    let sim_start = w.rack.sim().max_time_ns();
    let wall = Instant::now();
    tracer.enter(generation, sim_start);
    for op in 0..STARTS_PER_GENERATION {
        let op_id = generation * STARTS_PER_GENERATION + op;
        // Closed loop: the next start belongs to the node that became
        // free first.
        let n = (0..NODES)
            .filter(|&n| remaining[n] > 0)
            .min_by_key(|&n| w.rack.sim().node(n).clock().now())
            .expect("a node has starts left");
        remaining[n] -= 1;
        let node = w.rack.sim().node(n);
        tracer.enter(op_id, node.clock().now());
        let idx = zipf.sample(rng);
        tracer.exit(Span::Gen, node.clock().now());
        let image = &w.images[idx];
        let hot = !started[n].insert(idx);
        let t0 = node.clock().now();
        if !hot {
            let ready = &ready_at[n % w.stores.len()];
            if let Some(at) = image.layers.iter().filter_map(|l| ready.get(&l.id)).max() {
                node.clock().advance_to(at.saturating_sub(manifest_ns));
            }
        }
        let (container, report) = tracer.span(Span::StartContainer, op_id, node.clock(), || {
            w.runtimes[n].start_container(&image.name)
        })?;
        let done = node.clock().now();
        out.latencies.push(done - t0);
        if report.pages_downloaded > 0 {
            let committed_at = done - report.init_ns;
            let ready = &mut ready_at[n % w.stores.len()];
            for layer in &image.layers {
                ready.entry(layer.id).or_insert(committed_at);
            }
        }
        let ok = tracer.span(Span::Oracle, op_id, node.clock(), || {
            // The three phases leave only the root-fs creation (flacos-fs
            // metadata ops after init) unaccounted for.
            let sums = report.manifest_ns + report.fetch_ns + report.init_ns <= report.total_ns;
            let path_ok = (report.path == StartupPath::Hot) == hot;
            let pages_ok =
                hot || report.pages_downloaded + report.pages_from_cache == PAGES_PER_IMAGE;
            sums && path_ok && pages_ok && container.image == image.name
        });
        if !ok {
            out.failed += 1;
        }
        out.reports.push(report);
        containers.push((n, idx, container));
    }
    tracer.exit(Span::Driver, w.rack.sim().max_time_ns());
    out.wall = wall.elapsed();
    out.makespan_ns = w.rack.sim().max_time_ns() - sim_start;
    out.delta = Delta::between(&before, &snapshot(w.rack.sim()));

    // Store and dedup effectiveness over the generation (fresh per
    // generation, so totals are deltas).
    for store in &w.stores {
        add_store_stats(&mut out.store, &store.stats());
        let d = store.dedup().stats();
        out.dedup_interned += d.interned;
        out.dedup_hits += d.dedup_hits;
    }
    let pc = w.rack.fs_shared().cache().stats();
    out.page_cache_hits = pc.hits;
    out.page_cache_lookups = pc.hits + pc.misses;

    audit(w, rng, generation, &started, &containers, &mut out, tracer)?;
    Ok(out)
}

/// After the starts: every unique chunk of a started image was
/// downloaded exactly once rack-wide (shared store), a seeded sample of
/// started containers' pages hash-verifies against regenerated content,
/// and a sample of container roots reads back from another node.
fn audit(
    w: &mut World,
    rng: &mut SplitMix64,
    generation: u64,
    started: &[HashSet<usize>],
    containers: &[(usize, usize, serverless::runtime::Container)],
    out: &mut Starts,
    tracer: &Tracer,
) -> Result<(), SimError> {
    tracer.enter(generation, 0);
    if w.stores.len() == 1 {
        let unique: BTreeSet<u64> = started
            .iter()
            .flatten()
            .flat_map(|&idx| w.images[idx].chunk_hashes())
            .collect();
        let once = unique.iter().all(|&h| w.backends.fetch_count(h) == 1);
        let shipped = w.backends.total_stats().chunks_shipped;
        if !once || shipped != unique.len() as u64 {
            out.failed += 1;
        }
    }
    let mut buf = vec![0u8; CHUNK_SIZE];
    for _ in 0..AUDIT_SAMPLES {
        let (n, idx, container) = &containers[rng.gen_index(containers.len())];
        let layer = &w.images[*idx].layers[rng.gen_index(LAYERS_PER_IMAGE)];
        let page = rng.next_below(layer.pages);
        let hash = layer.chunk_hashes[page as usize];
        let node = w.rack.sim().node(*n);
        let store = w.store_of(*n).clone();
        let resident = tracer.span(Span::StoreVerify, generation, node.clock(), || {
            store.read_chunk(&node, hash, &mut buf)
        })?;
        if !resident || buf != layer.page_content(page) || flac_store::chunk_hash(&buf) != hash {
            out.failed += 1;
        }
        // The container's root is visible, with its image name, from a
        // different node's mount of the one file system.
        let other = (*n + 1 + rng.gen_index(NODES - 1)) % NODES;
        let reader = w.rack.sim().node(other);
        let path = format!("{}/config.json", container.rootfs);
        let t0 = reader.clock().now();
        let config = tracer.span(Span::FsRead, generation, reader.clock(), || {
            w.runtimes[other].fs_mut().read_file(&path)
        })?;
        out.fs_read_sim_ns += reader.clock().now() - t0;
        out.fs_reads += 1;
        if config != w.images[*idx].name.as_bytes() {
            out.failed += 1;
        }
    }
    tracer.exit(Span::Oracle, 0);
    Ok(())
}

/// Several generations: the measured ones summed, plus the per-generation
/// wall-clock samples (warm-up included, first).
#[derive(Debug, Default)]
struct Totals {
    sum: Starts,
    walls_ns: Vec<u64>,
    setups: Vec<Duration>,
    boot: Duration,
}

/// Run `generations` generations (each a fresh world). With
/// `skip_first`, the first is the warm-up: it contributes its wall time
/// and set-up sample only.
fn run_generations(
    cfg: &RunConfig,
    shared: bool,
    generations: u64,
    skip_first: bool,
    tracer: &Tracer,
) -> Result<Totals, SimError> {
    let zipf = Zipf::new(IMAGES, ZIPF_SKEW);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x57A2_7FA0);
    let mut t = Totals::default();
    for generation in 0..generations {
        let clock = Instant::now();
        let mut w = setup(cfg.seed, shared)?;
        t.setups.push(clock.elapsed());
        t.boot = w.boot;
        let warm_up = skip_first && generation == 0;
        // The warm-up generation is not part of the traced phase either.
        let off = Tracer::off();
        let tracer = if warm_up { &off } else { tracer };
        let out = run_generation(&mut w, &zipf, &mut rng, generation, tracer)?;
        t.walls_ns.push(out.wall.as_nanos() as u64);
        if !warm_up {
            t.sum.absorb(out);
        }
    }
    Ok(t)
}

fn measured_generations(cfg: &RunConfig) -> u64 {
    cfg.scaled(GENERATIONS).max(MIN_GENERATIONS)
}

pub fn run_end_to_end(cfg: &RunConfig) -> Result<EndToEnd, SimError> {
    let generations = measured_generations(cfg);
    let all = run_generations(cfg, true, generations + 1, true, &Tracer::off())?;
    let t = &all.sum;
    let base_generations = cfg.scaled(BASELINE_GENERATIONS).max(2);
    let base = run_generations(cfg, false, base_generations, false, &Tracer::off())?.sum;

    let mut violations = Vec::new();
    let latency = summarize(&t.latencies);
    if !latency.supported {
        violations.push(format!("p99 from only {} samples", latency.samples));
    }
    let ops = t.latencies.len() as u64;
    let baseline_p50_ns = summarize(&base.latencies).p50;
    let sim_ops_per_s = ops as f64 * 1e9 / t.makespan_ns.max(1) as f64;
    let path = |p: StartupPath| t.reports.iter().filter(|r| r.path == p).count();
    Ok(EndToEnd {
        latency,
        sim_ops_per_s,
        sim_slo_ops_per_s: sim_ops_per_s,
        sim_fabric_ops_per_op: t.delta.fabric_ops() as f64 / ops as f64,
        sim_bytes_moved_per_op: t.delta.bytes_moved() as f64 / ops as f64,
        baseline_speedup: baseline_p50_ns as f64 / latency.p50 as f64,
        baseline_p50_ns,
        host: segment_rate_of(&all.walls_ns, STARTS_PER_GENERATION),
        setup_s: median_secs(&all.setups),
        attempted: ops + STARTS_PER_GENERATION + base.latencies.len() as u64,
        failed: t.failed + base.failed,
        fingerprint: fingerprint(&t.latencies, &t.delta, &[baseline_p50_ns]),
        notes: vec![
            format!(
                "closed loop: {generations} generations x {STARTS_PER_GENERATION} starts \
                 (8 nodes x {STARTS_PER_NODE}); paths cold/shared/hot = {}/{}/{}",
                path(StartupPath::Cold),
                path(StartupPath::SharedPageCache),
                path(StartupPath::Hot)
            ),
            format!(
                "baseline private store per node: p50 {baseline_p50_ns} ns over \
                 {base_generations} generations of the same start sequence"
            ),
        ],
        violations,
    })
}

pub fn run_layers(cfg: &RunConfig) -> Result<Layers, SimError> {
    let generations = (measured_generations(cfg) / 4).max(2);
    let plain = run_generations(cfg, true, generations + 1, true, &Tracer::off())?;
    let tracer = Tracer::on();
    let all = run_generations(cfg, true, generations + 1, true, &tracer)?;
    let trace = tracer.report();
    let t = &all.sum;
    let ops = t.latencies.len() as u64;

    let (mut v, violations) = common_layers(
        &trace,
        &t.delta,
        ops,
        plain.sum.wall,
        all.boot,
        &[TraceLayer::RedisMini, TraceLayer::FlacosIpc],
        "startup-fanout",
    );
    fill_layer_values(t, &trace, ops, &mut v);
    probe_store(cfg.seed, &mut v)?;
    Ok(Layers {
        values: v,
        attempted: ops,
        failed: t.failed,
        trace,
        violations,
    })
}

fn fill_layer_values(t: &Starts, trace: &TraceReport, ops: u64, v: &mut LayerValues) {
    let per_op = |x: u64| x as f64 / ops as f64;
    let s = &t.store;
    let resolved = (s.chunks_fetched + s.rack_hits + s.coalesced) as f64;
    v.set("flac-store.chunks_fetched_per_op", per_op(s.chunks_fetched));
    v.set("flac-store.bytes_fetched_per_op", per_op(s.bytes_fetched));
    v.set(
        "flac-store.rack_hit_ratio",
        ratio(s.rack_hits as f64, resolved),
    );
    v.set(
        "flac-store.coalesced_ratio",
        ratio(s.coalesced as f64, resolved),
    );
    v.set(
        "flac-store.claims_lost_ratio",
        ratio(
            s.claims_lost as f64,
            (s.chunks_fetched + s.claims_lost) as f64,
        ),
    );
    let sum = |f: fn(&StartupReport) -> u64| t.reports.iter().map(f).sum::<u64>();
    v.set(
        "serverless.manifest_sim_ns_per_op",
        per_op(sum(|r| r.manifest_ns)),
    );
    v.set(
        "serverless.fetch_sim_ns_per_op",
        per_op(sum(|r| r.fetch_ns)),
    );
    v.set("serverless.init_sim_ns_per_op", per_op(sum(|r| r.init_ns)));
    v.set(
        "serverless.start_self_host_ns_per_op",
        per_op(trace.of(Span::StartContainer).host_self_ns),
    );
    v.set(
        "flacos-mem.frames_shared_ratio",
        ratio(t.dedup_hits as f64, t.dedup_interned as f64),
    );
    v.set(
        "flacos-fs.page_cache_hit_ratio",
        ratio(t.page_cache_hits as f64, t.page_cache_lookups as f64),
    );
    v.set(
        "flacos-fs.page_read_sim_ns",
        ratio(t.fs_read_sim_ns as f64, t.fs_reads as f64),
    );
}

/// Probes: replay the catalogue's own chunk lists through
/// `ChunkStore::ensure` (cold on one node, then rack-resident from
/// another) and its pages through `PageDeduper::intern`, in isolation.
fn probe_store(seed: u64, v: &mut LayerValues) -> Result<(), SimError> {
    let w = setup(seed, true)?;
    let (n0, n1) = (w.rack.sim().node(0), w.rack.sim().node(1));
    let store = w.store_of(0);
    let sample = &w.images[..8];
    let mut chunks = 0u64;
    let sim0 = n0.clock().now() + n1.clock().now();
    let t = Instant::now();
    for image in sample {
        let hashes = image.chunk_hashes();
        chunks += 2 * hashes.len() as u64;
        store.ensure(&n0, &hashes)?;
        store.ensure(&n1, &hashes)?;
    }
    v.set(
        "flac-store.ensure_host_ns_per_chunk",
        t.elapsed().as_nanos() as f64 / chunks as f64,
    );
    v.set(
        "flac-store.ensure_sim_ns_per_chunk",
        (n0.clock().now() + n1.clock().now() - sim0) as f64 / chunks as f64,
    );

    let dedup = PageDeduper::new(w.rack.frames().clone());
    let pages: Vec<Vec<u8>> = sample
        .iter()
        .flat_map(|image| &image.layers)
        .flat_map(|layer| (0..layer.pages).map(|p| layer.page_content(p)))
        .collect();
    let t = Instant::now();
    for page in &pages {
        dedup.intern(&n0, page)?;
    }
    v.set(
        "flacos-mem.dedup_intern_host_ns_per_page",
        t.elapsed().as_nanos() as f64 / pages.len() as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_overlaps_by_content_not_by_name() {
        let images = catalogue(1);
        assert_eq!(images.len(), IMAGES);
        assert_eq!(images[0].total_pages(), PAGES_PER_IMAGE);
        // Images 0 and 4 share the base layer, 0 and 16 base and middle.
        assert_eq!(images[0].layers[0].id, images[4].layers[0].id);
        assert_ne!(images[0].layers[1].id, images[4].layers[1].id);
        assert_eq!(images[0].layers[1].id, images[16].layers[1].id);
        assert_ne!(images[0].layers[2].id, images[16].layers[2].id);
        assert_ne!(
            catalogue(2)[0].layers[0].id,
            images[0].layers[0].id,
            "another seed, other content"
        );
    }

    #[test]
    fn a_generation_is_error_free_and_shares_what_the_baseline_refetches() {
        let zipf = Zipf::new(IMAGES, ZIPF_SKEW);
        let run = |shared| {
            let mut w = setup(5, shared).unwrap();
            let mut rng = SplitMix64::new(9);
            run_generation(&mut w, &zipf, &mut rng, 0, &Tracer::off()).unwrap()
        };
        let shared = run(true);
        assert_eq!(shared.failed, 0);
        assert_eq!(shared.latencies.len() as u64, STARTS_PER_GENERATION);
        assert_eq!(run(true).latencies, shared.latencies, "same seed repeats");
        let private = run(false);
        assert_eq!(private.failed, 0);
        assert!(
            private.store.chunks_fetched > shared.store.chunks_fetched,
            "private stores download what a shared store already holds"
        );
    }
}
