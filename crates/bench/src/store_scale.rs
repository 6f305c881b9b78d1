//! `flac-bench store` — shard-scaling and dedup gate for the chunk store.
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
//! The committed artifact is `BENCH_store.json`; [`failures`] judges it
//! and `flac-bench store --check` re-derives it from the tree.

use crate::report::{Point, Report};
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
/// Minimum cold-fetch speedup the committed full run must show at the
/// top shard count over the 1-shard serial baseline.
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
    /// The configuration behind the committed `BENCH_store.json`.
    pub fn full() -> Self {
        StoreScaleConfig {
            pages: 2048,
            layers: 4,
            seed: 9000,
        }
    }
}

/// Overlap-phase measurement (acceptance criterion (b)).
#[derive(Debug, Clone, Copy)]
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

/// Run the shard sweep: one point per shard count, keyed `shards=<n>`,
/// each run twice on fresh racks. `sim_ns` is node 0's cold fetch of
/// every chunk and `sim_ns_rerun` the same on the second rack;
/// `warm_fetch_ns` is node 1's warm start from the rack index, `fetched`
/// the chunks the cold start downloaded and `warm_rack_hits` the chunks
/// the warm start found in the index.
pub fn run_shard_sweep(cfg: StoreScaleConfig) -> Vec<Point> {
    let image = ContainerImage::synthetic("pytorch", cfg.pages, cfg.layers, cfg.seed);
    let unique: HashSet<u64> = image.chunk_hashes().into_iter().collect();
    let chunks = unique.len() as u64;
    SHARD_SWEEP
        .iter()
        .map(|&shards| {
            let (cold_fetch_ns, warm_fetch_ns, fetched, warm_rack_hits) = run_once(shards, &image);
            let (cold_fetch_ns_rerun, _, _, _) = run_once(shards, &image);
            Point::new(format!("shards={shards}"))
                .with("sim_ns", cold_fetch_ns)
                .with("sim_ns_rerun", cold_fetch_ns_rerun)
                .with("chunks", chunks)
                .with("bytes", chunks * CHUNK_SIZE as u64)
                .with("warm_fetch_ns", warm_fetch_ns)
                .with("fetched", fetched)
                .with("warm_rack_hits", warm_rack_hits)
        })
        .collect()
}

/// Run the overlap phase: image B shares its first two layers with A's
/// last two by content (layer seeds `seed+2`, `seed+3`).
pub fn run_overlap(cfg: StoreScaleConfig) -> OverlapPoint {
    let rack = Rack::new(RackConfig::two_node_hccs());
    let a = ContainerImage::synthetic("pytorch", cfg.pages, cfg.layers, cfg.seed);
    let b = ContainerImage::synthetic("jupyter", cfg.pages, cfg.layers, cfg.seed + 2);
    let backends = Arc::new(ShardedBackends::uniform(4, fixed_backend()));
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

/// The judgement of a report: the 1/4/8 shard sweep with cold fetch
/// time strictly improving and a top-shard cold-fetch speedup over
/// 1-shard serial of at least [`SPEEDUP_TARGET`], warm starts beating
/// cold, and the overlap phase downloading exactly the rack-absent
/// bytes (rerun parity is the schema's own check). Every quantity is
/// simulated time or exact chunk accounting, so there is no noise
/// tolerance anywhere.
///
/// # Errors
///
/// Names a column or fact the report lacks.
pub fn failures(report: &Report) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for need in SHARD_SWEEP {
        if report.point(&format!("shards={need}")).is_none() {
            failures.push(format!("shard sweep lacks the {need}-shard point"));
        }
    }
    for pair in report.points.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.key_u64("shards")? > a.key_u64("shards")? && b.u64("sim_ns")? >= a.u64("sim_ns")? {
            failures.push(format!(
                "cold fetch not monotonic: {} shards took {} ns, {} shards took {} ns",
                a.key_u64("shards")?,
                a.u64("sim_ns")?,
                b.key_u64("shards")?,
                b.u64("sim_ns")?
            ));
        }
    }
    for p in &report.points {
        let (shards, chunks) = (p.key_u64("shards")?, p.u64("chunks")?);
        if p.u64("fetched")? != chunks {
            failures.push(format!(
                "{shards} shards: cold start fetched {} of {chunks} chunks",
                p.u64("fetched")?
            ));
        }
        if p.u64("warm_rack_hits")? != chunks {
            failures.push(format!(
                "{shards} shards: warm start hit {} of {chunks} chunks in the rack index",
                p.u64("warm_rack_hits")?
            ));
        }
        let (warm, cold) = (p.u64("warm_fetch_ns")?, p.u64("sim_ns")?);
        if warm >= cold {
            failures.push(format!(
                "{shards} shards: warm start ({warm} ns) not faster than cold ({cold} ns)"
            ));
        }
    }
    let fact = |name| report.facts.u64(name);
    let (first, second) = (fact("first_bytes_fetched")?, fact("second_bytes_fetched")?);
    let missing = fact("unique_missing_bytes")?;
    if second != missing {
        failures.push(format!(
            "overlap: second node fetched {second} bytes but only {missing} bytes were \
             rack-absent — duplicate chunks were re-downloaded"
        ));
    }
    if fact("shared_chunks")? == 0 {
        failures.push("overlap: images share no chunks — the phase tests nothing".into());
    }
    if second == 0 || second >= first {
        failures.push(format!(
            "overlap: second fetch ({second} bytes) should be a nonzero strict subset of the \
             first ({first} bytes)"
        ));
    }
    if let Some((shards, speedup)) = speedup(report)? {
        if speedup < SPEEDUP_TARGET {
            failures.push(format!(
                "parallel fetch speedup {speedup:.2} at {shards} shards < {SPEEDUP_TARGET:.1} \
                 over 1-shard serial"
            ));
        }
    }
    Ok(failures)
}

/// The top shard count and its cold-fetch speedup over 1-shard serial.
fn speedup(report: &Report) -> Result<Option<(u64, f64)>, String> {
    let Some(serial) = report.point("shards=1") else {
        return Ok(None);
    };
    let mut top: Option<(u64, &Point)> = None;
    for p in &report.points {
        let shards = p.key_u64("shards")?;
        if top.is_none_or(|(t, _)| shards >= t) {
            top = Some((shards, p));
        }
    }
    let Some((shards, top)) = top else {
        return Ok(None);
    };
    let speedup = serial.u64("sim_ns")? as f64 / top.u64("sim_ns")?.max(1) as f64;
    Ok(Some((shards, speedup)))
}

/// Run the shard sweep and the overlap phase of
/// [`StoreScaleConfig::full`], printing the summary lines, and build the
/// report.
pub fn run() -> Report {
    run_with(StoreScaleConfig::full())
}

/// [`run`] at the sizes of `cfg`.
fn run_with(cfg: StoreScaleConfig) -> Report {
    println!("store: image {} pages x {} layers", cfg.pages, cfg.layers);
    let mut report = Report::new("store")
        .fact("chunk_size", CHUNK_SIZE)
        .fact("per_shard_bw", PER_SHARD_BW)
        .fact("speedup_top_min", SPEEDUP_TARGET);
    report.points = run_shard_sweep(cfg);
    if let Ok(Some((shards, speedup))) = speedup(&report) {
        println!("  parallel fetch speedup at {shards} shards: {speedup:.2}x over 1-shard serial");
    }
    let overlap = run_overlap(cfg);
    println!(
        "  overlap: second node fetched {} bytes, rack-absent {} bytes, shared {} chunks",
        overlap.second_bytes_fetched, overlap.unique_missing_bytes, overlap.shared_chunks
    );
    report
        .fact("first_bytes_fetched", overlap.first_bytes_fetched)
        .fact("second_bytes_fetched", overlap.second_bytes_fetched)
        .fact("unique_missing_bytes", overlap.unique_missing_bytes)
        .fact("shared_chunks", overlap.shared_chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 64-page image: every path of the full run in a fraction of
    /// its time.
    fn quick() -> StoreScaleConfig {
        StoreScaleConfig {
            pages: 64,
            ..StoreScaleConfig::full()
        }
    }

    /// The judgement of a quick run: every invariant holds, and the small
    /// image leaves the per-request latency unamortized, so only the
    /// speedup floor fails.
    fn quick_failures(report: &Report) -> Vec<String> {
        let mut found = failures(report).unwrap();
        assert!(
            found
                .pop()
                .is_some_and(|f| f.starts_with("parallel fetch speedup")),
            "{found:?}"
        );
        found
    }

    #[test]
    fn quick_sweep_is_monotonic_deterministic_and_warm_wins() {
        let report = run_with(quick());
        assert_eq!(report.rerun_failures(), Vec::<String>::new());
        assert_eq!(quick_failures(&report), Vec::<String>::new());
    }

    #[test]
    fn overlap_downloads_exactly_the_rack_absent_bytes() {
        let o = run_overlap(quick());
        // 4 layers of 16 pages; B shares A's last two layers.
        assert_eq!(o.shared_chunks, 32);
        assert_eq!(o.unique_missing_bytes, 32 * CHUNK_SIZE as u64);
        assert_eq!(o.second_bytes_fetched, o.unique_missing_bytes, "{o:?}");
    }

    #[test]
    fn parse_report_roundtrips_the_writer() {
        let report = run_with(quick());
        let parsed = Report::parse(&report.to_json()).expect("parse");
        assert_eq!(parsed, report);
        assert_eq!(parsed.points.len(), SHARD_SWEEP.len());
        assert_eq!(
            parsed.facts.u64("second_bytes_fetched"),
            Ok(run_overlap(quick()).second_bytes_fetched)
        );
    }

    #[test]
    fn check_report_rejects_broken_monotonicity() {
        let mut report = run_with(quick());
        let slower = report.points[0].u64("sim_ns").unwrap() + 1;
        report.points[2] = report.points[2]
            .clone()
            .with("sim_ns", slower)
            .with("sim_ns_rerun", slower);
        assert!(quick_failures(&report)
            .iter()
            .any(|f| f.contains("monotonic")));
    }
}
