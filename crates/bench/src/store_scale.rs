//! Shard scaling and dedup of the chunk store: section `store` (A9) of
//! `figures`.
//!
//! Two deterministic phases, both in *simulated* time (the store charges
//! every fetch/claim/intern against the rack clock, so there is no
//! wall-clock noise to tolerate — every invariant is exact):
//!
//! * **Shard sweep** — cold-start the same content-addressed image
//!   against 1, 4, and 8 backend shards of *fixed per-shard bandwidth*.
//!   Aggregate bandwidth grows with the shard count and the store
//!   fetches the shard slices in parallel (charging the max over
//!   shards), so the cold fetch time must improve monotonically
//!   1 → 4 → 8. Each point is run twice on fresh racks; both runs must
//!   charge identical simulated ns (determinism parity).
//! * **Overlap** — node 0 cold-starts image A, then node 1 starts an
//!   *overlapping* image B (two of four layers shared by content).
//!   The rack-wide index must confine node 1's downloads to the chunks
//!   the rack does not already hold: `bytes_fetched` must equal the
//!   byte size of B's unique chunks absent after A, exactly.
//!
//! [`failures`] judges a run; `figures store` prints it only if it
//! passes.

use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig, CHUNK_SIZE};
use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use rack_sim::{Rack, RackConfig};
use serverless::image::ContainerImage;
use std::collections::HashSet;
use std::sync::Arc;

/// Shard counts swept by the benchmark, ascending.
pub const SHARD_SWEEP: [usize; 3] = [1, 4, 8];
/// Fixed per-shard bandwidth (bytes/s). Unlike the serverless path's
/// aggregate-preserving calibration, the sweep holds the *per-shard*
/// rate fixed so shard count buys real parallel bandwidth.
pub const PER_SHARD_BW: u64 = 200_000_000;
/// Per-request latency each shard charges per fetch batch (ns).
pub const PER_REQUEST_NS: u64 = 5_000_000;
/// Backend shards of the overlap phase.
pub const OVERLAP_SHARDS: usize = 4;
/// Minimum cold-fetch speedup a run must show at the top shard count
/// over the 1-shard serial baseline.
pub const SPEEDUP_TARGET: f64 = 2.0;

/// Workload size knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreScaleConfig {
    /// Pages (= chunks) in the synthetic image.
    pub pages: u64,
    /// Layers the image is split into.
    pub layers: usize,
    /// Content seed.
    pub seed: u64,
}

impl StoreScaleConfig {
    /// The configuration of `figures store`.
    pub fn full() -> Self {
        StoreScaleConfig {
            pages: 2048,
            layers: 4,
            seed: 9000,
        }
    }
}

/// Overlap-phase measurement (acceptance criterion (b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapPoint {
    /// Bytes node 0 fetched cold-starting image A.
    pub first_bytes_fetched: u64,
    /// Bytes node 1 fetched starting the overlapping image B.
    pub second_bytes_fetched: u64,
    /// Bytes of B's unique chunks the rack did not hold after A.
    pub unique_missing_bytes: u64,
    /// Chunks B shares with A by content.
    pub shared_chunks: u64,
}

fn fixed_backend() -> BackendConfig {
    BackendConfig {
        bandwidth_bytes_per_sec: PER_SHARD_BW,
        per_request_ns: PER_REQUEST_NS,
        per_chunk_ns: 1_000,
    }
}

/// Build a fresh 2-node rack + store over `shards` backends, publish
/// `image`, and return (cold ns on node 0, warm ns on node 1, fetched,
/// warm rack hits).
fn run_once(shards: usize, image: &ContainerImage) -> (u64, u64, u64, u64) {
    let rack = Rack::new(RackConfig::two_node_hccs());
    let backends = Arc::new(ShardedBackends::uniform(shards, fixed_backend()));
    image.publish(&backends);
    let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(rack.global().clone())));
    let store = ChunkStore::alloc(
        rack.global(),
        backends,
        dedup,
        StoreConfig::new(rack.node_count()),
    )
    .expect("store");
    let hashes = image.chunk_hashes();

    let n0 = rack.node(0);
    let t0 = n0.clock().now();
    let cold = store.ensure(&n0, &hashes).expect("cold ensure");
    let cold_ns = n0.clock().now() - t0;

    let n1 = rack.node(1);
    let t1 = n1.clock().now();
    let warm = store.ensure(&n1, &hashes).expect("warm ensure");
    let warm_ns = n1.clock().now() - t1;
    assert_eq!(warm.fetched, 0, "warm start must not download");
    (cold_ns, warm_ns, cold.fetched, warm.rack_hits)
}

/// One shard count of the sweep, run twice on fresh racks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPoint {
    /// Backend shards.
    pub shards: usize,
    /// Node 0's cold fetch of every chunk, simulated ns.
    pub cold_fetch_ns: u64,
    /// The same on the second rack; must equal `cold_fetch_ns`.
    pub cold_fetch_ns_rerun: u64,
    /// Distinct chunks in the image.
    pub chunks: u64,
    /// Node 1's warm start from the rack index, simulated ns.
    pub warm_fetch_ns: u64,
    /// Chunks the cold start downloaded.
    pub fetched: u64,
    /// Chunks the warm start found in the rack index.
    pub warm_rack_hits: u64,
}

/// The shard sweep and the overlap phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreScale {
    /// Pages (= chunks) in the image.
    pub pages: u64,
    /// One point per [`SHARD_SWEEP`] entry, in its order.
    pub sweep: [ShardPoint; SHARD_SWEEP.len()],
    /// The overlap phase.
    pub overlap: OverlapPoint,
}

impl StoreScale {
    /// Cold-fetch speedup of sweep point `i` over 1-shard serial.
    pub fn speedup(&self, i: usize) -> f64 {
        self.sweep[0].cold_fetch_ns as f64 / self.sweep[i].cold_fetch_ns.max(1) as f64
    }
}

/// Run the shard sweep, each point twice on fresh racks.
pub fn run_shard_sweep(cfg: StoreScaleConfig) -> [ShardPoint; SHARD_SWEEP.len()] {
    let image = ContainerImage::synthetic("pytorch", cfg.pages, cfg.layers, cfg.seed);
    let unique: HashSet<u64> = image.chunk_hashes().into_iter().collect();
    let chunks = unique.len() as u64;
    SHARD_SWEEP.map(|shards| {
        let (cold_fetch_ns, warm_fetch_ns, fetched, warm_rack_hits) = run_once(shards, &image);
        let (cold_fetch_ns_rerun, _, _, _) = run_once(shards, &image);
        ShardPoint {
            shards,
            cold_fetch_ns,
            cold_fetch_ns_rerun,
            chunks,
            warm_fetch_ns,
            fetched,
            warm_rack_hits,
        }
    })
}

/// Run the overlap phase: image B shares its first two layers with A's
/// last two by content (layer seeds `seed+2`, `seed+3`).
pub fn run_overlap(cfg: StoreScaleConfig) -> OverlapPoint {
    let rack = Rack::new(RackConfig::two_node_hccs());
    let a = ContainerImage::synthetic("pytorch", cfg.pages, cfg.layers, cfg.seed);
    let b = ContainerImage::synthetic("jupyter", cfg.pages, cfg.layers, cfg.seed + 2);
    let backends = Arc::new(ShardedBackends::uniform(OVERLAP_SHARDS, fixed_backend()));
    a.publish(&backends);
    b.publish(&backends);
    let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(rack.global().clone())));
    let store = ChunkStore::alloc(
        rack.global(),
        backends,
        dedup,
        StoreConfig::new(rack.node_count()),
    )
    .expect("store");

    let first = store
        .ensure(&rack.node(0), &a.chunk_hashes())
        .expect("first ensure");
    let a_hashes: HashSet<u64> = a.chunk_hashes().into_iter().collect();
    let b_hashes: HashSet<u64> = b.chunk_hashes().into_iter().collect();
    let missing = b_hashes.difference(&a_hashes).count() as u64;
    let shared = b_hashes.intersection(&a_hashes).count() as u64;
    let second = store
        .ensure(&rack.node(1), &b.chunk_hashes())
        .expect("second ensure");
    OverlapPoint {
        first_bytes_fetched: first.bytes_fetched,
        second_bytes_fetched: second.bytes_fetched,
        unique_missing_bytes: missing * CHUNK_SIZE as u64,
        shared_chunks: shared,
    }
}

/// The judgement of a run: cold fetch time strictly improving along the
/// shard sweep with a top-shard cold-fetch speedup over 1-shard serial
/// of at least [`SPEEDUP_TARGET`], every cold start fetching and every
/// warm start hitting every chunk, warm starts beating cold, seeded
/// reruns reproducing every cold fetch, and the overlap phase
/// downloading exactly the rack-absent bytes. Every quantity is
/// simulated time or exact chunk accounting, so there is no noise
/// tolerance anywhere.
pub fn failures(r: &StoreScale) -> Vec<String> {
    let mut failures = Vec::new();
    for pair in r.sweep.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.cold_fetch_ns >= a.cold_fetch_ns {
            failures.push(format!(
                "cold fetch not monotonic: {} shards took {} ns, {} shards took {} ns",
                a.shards, a.cold_fetch_ns, b.shards, b.cold_fetch_ns
            ));
        }
    }
    for p in &r.sweep {
        let (shards, chunks) = (p.shards, p.chunks);
        if p.fetched != chunks {
            failures.push(format!(
                "{shards} shards: cold start fetched {} of {chunks} chunks",
                p.fetched
            ));
        }
        if p.warm_rack_hits != chunks {
            failures.push(format!(
                "{shards} shards: warm start hit {} of {chunks} chunks in the rack index",
                p.warm_rack_hits
            ));
        }
        let (warm, cold) = (p.warm_fetch_ns, p.cold_fetch_ns);
        if warm >= cold {
            failures.push(format!(
                "{shards} shards: warm start ({warm} ns) not faster than cold ({cold} ns)"
            ));
        }
        if cold != p.cold_fetch_ns_rerun {
            failures.push(format!(
                "{shards} shards: seeded rerun did not reproduce the cold fetch ({cold} vs {} ns)",
                p.cold_fetch_ns_rerun
            ));
        }
    }
    let o = r.overlap;
    let (first, second) = (o.first_bytes_fetched, o.second_bytes_fetched);
    if second != o.unique_missing_bytes {
        failures.push(format!(
            "overlap: second node fetched {second} bytes but only {} bytes were \
             rack-absent — duplicate chunks were re-downloaded",
            o.unique_missing_bytes
        ));
    }
    if o.shared_chunks == 0 {
        failures.push("overlap: images share no chunks — the phase tests nothing".into());
    }
    if second == 0 || second >= first {
        failures.push(format!(
            "overlap: second fetch ({second} bytes) should be a nonzero strict subset of the \
             first ({first} bytes)"
        ));
    }
    let top = SHARD_SWEEP.len() - 1;
    let speedup = r.speedup(top);
    if speedup < SPEEDUP_TARGET {
        failures.push(format!(
            "parallel fetch speedup {speedup:.2} at {} shards < {SPEEDUP_TARGET:.1} \
             over 1-shard serial",
            SHARD_SWEEP[top]
        ));
    }
    failures
}

/// Run the shard sweep and the overlap phase of
/// [`StoreScaleConfig::full`].
pub fn run() -> StoreScale {
    run_with(StoreScaleConfig::full())
}

/// [`run`] at the sizes of `cfg`.
fn run_with(cfg: StoreScaleConfig) -> StoreScale {
    StoreScale {
        pages: cfg.pages,
        sweep: run_shard_sweep(cfg),
        overlap: run_overlap(cfg),
    }
}

/// Render the sweep and the overlap phase, every value exact.
pub fn report(r: &StoreScale) -> String {
    let rows: Vec<Vec<String>> = r
        .sweep
        .iter()
        .enumerate()
        .map(|(i, p)| {
            vec![
                p.shards.to_string(),
                p.chunks.to_string(),
                (p.chunks * CHUNK_SIZE as u64).to_string(),
                p.cold_fetch_ns.to_string(),
                format!("{:.2}x", r.speedup(i)),
                p.warm_fetch_ns.to_string(),
                p.fetched.to_string(),
                p.warm_rack_hits.to_string(),
            ]
        })
        .collect();
    let o = r.overlap;
    format!(
        "Ablation A9: chunk-store cold start vs shard count ({} pages, {} B/s and {} ns per \
         request per shard, simulated ns)\n\n{}\n\
         overlap ({} shards): first node fetched {} bytes; second node fetched {} bytes, \
         rack-absent {} bytes, {} chunks shared\n",
        r.pages,
        PER_SHARD_BW,
        PER_REQUEST_NS,
        crate::table::render(
            &[
                "shards",
                "chunks",
                "bytes",
                "cold fetch ns",
                "speedup",
                "warm fetch ns",
                "fetched",
                "warm rack hits"
            ],
            &rows
        ),
        OVERLAP_SHARDS,
        o.first_bytes_fetched,
        o.second_bytes_fetched,
        o.unique_missing_bytes,
        o.shared_chunks
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_downloads_exactly_the_rack_absent_bytes() {
        // 4 layers of 16 pages; B shares A's last two layers.
        let o = run_overlap(StoreScaleConfig {
            pages: 64,
            ..StoreScaleConfig::full()
        });
        assert_eq!(o.shared_chunks, 32);
        assert_eq!(o.unique_missing_bytes, 32 * CHUNK_SIZE as u64);
        assert_eq!(o.second_bytes_fetched, o.unique_missing_bytes, "{o:?}");
    }

    /// A quarter of the full image, run once for every test: still large
    /// enough for its fetches to amortize the per-request latency past
    /// the speedup floor.
    fn quick() -> &'static StoreScale {
        static QUICK: std::sync::OnceLock<StoreScale> = std::sync::OnceLock::new();
        QUICK.get_or_init(|| {
            run_with(StoreScaleConfig {
                pages: 512,
                ..StoreScaleConfig::full()
            })
        })
    }

    #[test]
    fn quick_sweep_is_monotonic_deterministic_and_warm_wins() {
        assert_eq!(failures(quick()), Vec::<String>::new());
    }

    #[test]
    fn judgement_rejects_each_broken_invariant() {
        crate::assert_judged(
            quick(),
            failures,
            &[
                ("not monotonic", |r| {
                    r.sweep[2].cold_fetch_ns = r.sweep[1].cold_fetch_ns;
                    r.sweep[2].cold_fetch_ns_rerun = r.sweep[1].cold_fetch_ns;
                }),
                ("cold start fetched", |r| r.sweep[0].fetched -= 1),
                ("warm start hit", |r| r.sweep[1].warm_rack_hits -= 1),
                ("not faster than cold", |r| {
                    r.sweep[2].warm_fetch_ns = r.sweep[2].cold_fetch_ns;
                }),
                ("4 shards: seeded rerun did not reproduce", |r| {
                    r.sweep[1].cold_fetch_ns_rerun += 1;
                }),
                ("duplicate chunks", |r| r.overlap.second_bytes_fetched += 1),
                ("share no chunks", |r| r.overlap.shared_chunks = 0),
                ("strict subset", |r| {
                    r.overlap.second_bytes_fetched = r.overlap.first_bytes_fetched;
                    r.overlap.unique_missing_bytes = r.overlap.first_bytes_fetched;
                }),
                ("parallel fetch speedup", |r| {
                    let slow = r.sweep[0].cold_fetch_ns / 2 + 1;
                    r.sweep[2].cold_fetch_ns = slow;
                    r.sweep[2].cold_fetch_ns_rerun = slow;
                }),
            ],
        );
    }
}
