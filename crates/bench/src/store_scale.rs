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
//! The committed artifact is `BENCH_store.json`; `--check` re-reads it
//! and enforces the invariants of [`gate_failures`] plus the speedup
//! floor of [`target_failures`].

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
    /// The ~1 s CI smoke configuration.
    pub fn quick() -> Self {
        StoreScaleConfig {
            pages: 64,
            layers: 4,
            seed: 9000,
        }
    }

    /// The full configuration behind the committed `BENCH_store.json`.
    pub fn full() -> Self {
        StoreScaleConfig {
            pages: 2048,
            layers: 4,
            seed: 9000,
        }
    }
}

/// One shard-sweep measurement.
#[derive(Debug, Clone, Copy)]
pub struct ShardPoint {
    /// Backend shard count.
    pub shards: usize,
    /// Unique chunks in the image.
    pub chunks: u64,
    /// Bytes those chunks occupy.
    pub bytes: u64,
    /// Simulated ns node 0 spent cold-fetching every chunk.
    pub cold_fetch_ns: u64,
    /// The same measurement re-run on a fresh rack (determinism parity).
    pub cold_fetch_ns_rerun: u64,
    /// Simulated ns node 1 spent warm-starting from the rack index.
    pub warm_fetch_ns: u64,
    /// Chunks the cold start downloaded from the backends.
    pub fetched: u64,
    /// Chunks the warm start served from the rack without downloading.
    pub warm_rack_hits: u64,
}

impl ShardPoint {
    /// Did both runs charge identical simulated time?
    pub fn parity(&self) -> bool {
        self.cold_fetch_ns == self.cold_fetch_ns_rerun
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

impl OverlapPoint {
    /// The no-duplicate-download invariant.
    pub fn exact(&self) -> bool {
        self.second_bytes_fetched == self.unique_missing_bytes
    }
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

/// Run the shard sweep (each point twice, on fresh racks).
pub fn run_shard_sweep(cfg: StoreScaleConfig) -> Vec<ShardPoint> {
    let image = ContainerImage::synthetic("pytorch", cfg.pages, cfg.layers, cfg.seed);
    let unique: HashSet<u64> = image.chunk_hashes().into_iter().collect();
    let chunks = unique.len() as u64;
    SHARD_SWEEP
        .iter()
        .map(|&shards| {
            let (cold_fetch_ns, warm_fetch_ns, fetched, warm_rack_hits) = run_once(shards, &image);
            let (cold_fetch_ns_rerun, _, _, _) = run_once(shards, &image);
            ShardPoint {
                shards,
                chunks,
                bytes: chunks * CHUNK_SIZE as u64,
                cold_fetch_ns,
                cold_fetch_ns_rerun,
                warm_fetch_ns,
                fetched,
                warm_rack_hits,
            }
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

/// Render both phases as a JSON document. Hand-rolled: the workspace is
/// hermetic, so no serde.
pub fn to_json(points: &[ShardPoint], overlap: &OverlapPoint, quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"store_scale\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"chunk_size\": {CHUNK_SIZE},\n"));
    out.push_str(&format!("  \"per_shard_bw\": {PER_SHARD_BW},\n"));
    out.push_str(&format!(
        "  \"targets\": {{ \"monotonic_shards\": true, \"speedup_top_min\": {SPEEDUP_TARGET:.1}, \
         \"parity\": true, \"overlap_exact\": true }},\n"
    ));
    out.push_str("  \"shard_sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{ \"shards\": {}, \"chunks\": {}, \"bytes\": {}, \"cold_fetch_ns\": {}, \
             \"cold_fetch_ns_rerun\": {}, \"warm_fetch_ns\": {}, \"fetched\": {}, \
             \"warm_rack_hits\": {} }}",
            p.shards,
            p.chunks,
            p.bytes,
            p.cold_fetch_ns,
            p.cold_fetch_ns_rerun,
            p.warm_fetch_ns,
            p.fetched,
            p.warm_rack_hits
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"overlap\": {{ \"first_bytes_fetched\": {}, \"second_bytes_fetched\": {}, \
         \"unique_missing_bytes\": {}, \"shared_chunks\": {} }}\n",
        overlap.first_bytes_fetched,
        overlap.second_bytes_fetched,
        overlap.unique_missing_bytes,
        overlap.shared_chunks
    ));
    out.push_str("}\n");
    out
}

/// A `BENCH_store.json` re-read from disk (see [`parse_report`]).
#[derive(Debug, Clone)]
pub struct ParsedStoreReport {
    /// Shard-sweep points, in report order.
    pub points: Vec<ShardPoint>,
    /// The overlap phase.
    pub overlap: OverlapPoint,
}

/// Re-read a report produced by [`to_json`]. Hand-rolled like the
/// writer: each array/object entry occupies one line, so the shared
/// [`crate::report`] line-wise extraction is exact.
///
/// # Errors
///
/// Returns a description of the first malformed line or missing field.
pub fn parse_report(json: &str) -> Result<ParsedStoreReport, String> {
    crate::report::parse_quick(json)?;
    let mut points = Vec::new();
    for obj in crate::report::objects_with(json, "shards") {
        points.push(ShardPoint {
            shards: obj.usize_field("shards")?,
            chunks: obj.u64_field("chunks")?,
            bytes: obj.u64_field("bytes")?,
            cold_fetch_ns: obj.u64_field("cold_fetch_ns")?,
            cold_fetch_ns_rerun: obj.u64_field("cold_fetch_ns_rerun")?,
            warm_fetch_ns: obj.u64_field("warm_fetch_ns")?,
            fetched: obj.u64_field("fetched")?,
            warm_rack_hits: obj.u64_field("warm_rack_hits")?,
        });
    }
    if points.is_empty() {
        return Err("no shard_sweep[] entries found".into());
    }
    let obj = crate::report::object_with(json, "first_bytes_fetched")
        .map_err(|_| "missing \"overlap\" object".to_string())?;
    let overlap = OverlapPoint {
        first_bytes_fetched: obj.u64_field("first_bytes_fetched")?,
        second_bytes_fetched: obj.u64_field("second_bytes_fetched")?,
        unique_missing_bytes: obj.u64_field("unique_missing_bytes")?,
        shared_chunks: obj.u64_field("shared_chunks")?,
    };
    Ok(ParsedStoreReport { points, overlap })
}

/// The invariants every report must hold (the `--gate`): the 1/4/8
/// shard sweep with cold fetch time strictly improving, rerun parity,
/// warm starts beating cold, and the overlap phase downloading exactly
/// the rack-absent bytes. Every quantity is simulated time or exact
/// chunk accounting, so there is no noise tolerance anywhere. Quick runs
/// pass; the speedup floor lives in [`target_failures`].
pub fn gate_failures(report: &ParsedStoreReport) -> Vec<String> {
    let (points, overlap) = (&report.points, &report.overlap);
    let mut failures = Vec::new();
    for need in SHARD_SWEEP {
        if !points.iter().any(|p| p.shards == need) {
            failures.push(format!("shard sweep lacks the {need}-shard point"));
        }
    }
    for pair in points.windows(2) {
        if pair[1].shards > pair[0].shards && pair[1].cold_fetch_ns >= pair[0].cold_fetch_ns {
            failures.push(format!(
                "cold fetch not monotonic: {} shards took {} ns, {} shards took {} ns",
                pair[0].shards, pair[0].cold_fetch_ns, pair[1].shards, pair[1].cold_fetch_ns
            ));
        }
    }
    for p in points {
        if !p.parity() {
            failures.push(format!(
                "{} shards: reruns disagree ({} vs {} ns) — the store is nondeterministic",
                p.shards, p.cold_fetch_ns, p.cold_fetch_ns_rerun
            ));
        }
        if p.fetched != p.chunks {
            failures.push(format!(
                "{} shards: cold start fetched {} of {} chunks",
                p.shards, p.fetched, p.chunks
            ));
        }
        if p.warm_rack_hits != p.chunks {
            failures.push(format!(
                "{} shards: warm start hit {} of {} chunks in the rack index",
                p.shards, p.warm_rack_hits, p.chunks
            ));
        }
        if p.warm_fetch_ns >= p.cold_fetch_ns {
            failures.push(format!(
                "{} shards: warm start ({} ns) not faster than cold ({} ns)",
                p.shards, p.warm_fetch_ns, p.cold_fetch_ns
            ));
        }
    }
    if !overlap.exact() {
        failures.push(format!(
            "overlap: second node fetched {} bytes but only {} bytes were rack-absent \
             — duplicate chunks were re-downloaded",
            overlap.second_bytes_fetched, overlap.unique_missing_bytes
        ));
    }
    if overlap.shared_chunks == 0 {
        failures.push("overlap: images share no chunks — the phase tests nothing".into());
    }
    if overlap.second_bytes_fetched == 0
        || overlap.second_bytes_fetched >= overlap.first_bytes_fetched
    {
        failures.push(format!(
            "overlap: second fetch ({} bytes) should be a nonzero strict subset of the \
             first ({} bytes)",
            overlap.second_bytes_fetched, overlap.first_bytes_fetched
        ));
    }
    failures
}

/// The committed report's own target: top-shard cold-fetch speedup over
/// 1-shard serial at least [`SPEEDUP_TARGET`]. Only a full run's larger
/// image amortizes the per-request latency enough to reach it.
pub fn target_failures(report: &ParsedStoreReport) -> Vec<String> {
    match speedup(&report.points) {
        Some((shards, speedup)) if speedup < SPEEDUP_TARGET => vec![format!(
            "parallel fetch speedup {speedup:.2} at {shards} shards < {SPEEDUP_TARGET:.1} \
             over 1-shard serial"
        )],
        _ => Vec::new(),
    }
}

/// The top shard count and its cold-fetch speedup over 1-shard serial.
fn speedup(points: &[ShardPoint]) -> Option<(usize, f64)> {
    let serial = points.iter().find(|p| p.shards == 1)?;
    let top = points.iter().max_by_key(|p| p.shards)?;
    let speedup = serial.cold_fetch_ns as f64 / top.cold_fetch_ns.max(1) as f64;
    Some((top.shards, speedup))
}

/// Run the shard sweep and the overlap phase, printing each row, and
/// render the report.
pub fn run(quick: bool) -> String {
    let cfg = if quick {
        StoreScaleConfig::quick()
    } else {
        StoreScaleConfig::full()
    };
    println!(
        "store: {} mode, image {} pages x {} layers",
        if quick { "quick" } else { "full" },
        cfg.pages,
        cfg.layers
    );
    let points = run_shard_sweep(cfg);
    for p in &points {
        println!(
            "  shards={} cold={:>12} ns (rerun {:>12} ns) warm={:>9} ns fetched={} rack_hits={}",
            p.shards,
            p.cold_fetch_ns,
            p.cold_fetch_ns_rerun,
            p.warm_fetch_ns,
            p.fetched,
            p.warm_rack_hits
        );
    }
    if let Some((shards, speedup)) = speedup(&points) {
        println!("  parallel fetch speedup at {shards} shards: {speedup:.2}x over 1-shard serial");
    }
    let overlap = run_overlap(cfg);
    println!(
        "  overlap: second node fetched {} bytes, rack-absent {} bytes, shared {} chunks",
        overlap.second_bytes_fetched, overlap.unique_missing_bytes, overlap.shared_chunks
    );
    to_json(&points, &overlap, quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_monotonic_deterministic_and_warm_wins() {
        let failures = gate_failures(&ParsedStoreReport {
            points: run_shard_sweep(StoreScaleConfig::quick()),
            overlap: run_overlap(StoreScaleConfig::quick()),
        });
        assert!(failures.is_empty(), "gate failures: {failures:?}");
    }

    #[test]
    fn overlap_downloads_exactly_the_rack_absent_bytes() {
        let o = run_overlap(StoreScaleConfig::quick());
        // 4 layers of 16 pages; B shares A's last two layers.
        assert_eq!(o.shared_chunks, 32);
        assert_eq!(o.unique_missing_bytes, 32 * CHUNK_SIZE as u64);
        assert!(o.exact(), "{o:?}");
    }

    #[test]
    fn parse_report_roundtrips_the_writer() {
        let points = run_shard_sweep(StoreScaleConfig::quick());
        let overlap = run_overlap(StoreScaleConfig::quick());
        let json = to_json(&points, &overlap, true);
        let parsed = parse_report(&json).expect("parse");
        assert_eq!(parsed.points.len(), points.len());
        for (a, b) in parsed.points.iter().zip(&points) {
            assert_eq!(a.shards, b.shards);
            assert_eq!(a.cold_fetch_ns, b.cold_fetch_ns);
            assert_eq!(a.warm_rack_hits, b.warm_rack_hits);
        }
        assert_eq!(
            parsed.overlap.second_bytes_fetched,
            overlap.second_bytes_fetched
        );
    }

    #[test]
    fn check_report_rejects_quick_runs_and_broken_monotonicity() {
        let points = run_shard_sweep(StoreScaleConfig::quick());
        let overlap = run_overlap(StoreScaleConfig::quick());
        let quick_json = to_json(&points, &overlap, true);
        let failures = crate::suite::Suite::Store.check(&quick_json);
        assert!(failures.iter().any(|f| f.contains("--quick")));

        let mut broken = parse_report(&quick_json).expect("parse");
        broken.points[2].cold_fetch_ns = broken.points[0].cold_fetch_ns + 1;
        broken.points[2].cold_fetch_ns_rerun = broken.points[2].cold_fetch_ns;
        assert!(gate_failures(&broken)
            .iter()
            .any(|f| f.contains("monotonic")));
    }
}
