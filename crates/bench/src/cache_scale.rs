//! `bench::cache_scale` — wall-clock cost per operation of the node cache.
//!
//! Unlike every other module in this crate, which measures *simulated*
//! nanoseconds, this benchmark measures **real** time: it pits
//! [`rack_sim::cache::NodeCache`] against a faithful port of the original
//! node cache (one mutex around a `HashMap` + lazy LRU queue, stats copied
//! out under the lock after every operation) on one thread, and reports
//! operations per wall-clock second at a hit-heavy and a miss-heavy ratio.
//! Every workload and driver of the repo runs one thread per node cache,
//! so per-operation efficiency is what this measures, not parallel
//! scaling.
//!
//! Both implementations run the *identical* deterministic op sequence
//! (seeded [`SplitMix64`]), so besides throughput the run cross-checks
//! the cost model: the total simulated nanoseconds charged by the two
//! designs must be equal. A divergence fails the `--gate` check.
//!
//! `flac-bench cache` writes the results as `BENCH_cache.json`;
//! `scripts/verify.sh` runs it in `--quick --gate` mode as a smoke test.

use rack_sim::cache::{CacheConfig, CacheStats, NodeCache};
use rack_sim::sync::Mutex;
use rack_sim::{GAddr, GlobalMemory, LatencyModel, SimError, SplitMix64, LINE_SIZE};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Hit ratios (permille) every run measures: the common case and the
/// miss-heavy case.
pub const HIT_RATIOS: [u64; 2] = [950, 500];

/// Lowest node-cache / baseline throughput ratio the committed report
/// may show at either hit ratio.
pub const SINGLE_THREAD_RATIO_MIN: f64 = 0.95;

/// Lowest ratio the `--gate` smoke accepts: a short run on a noisy host
/// fails only on a > 20 % regression.
pub const SMOKE_RATIO_MIN: f64 = 0.80;

/// Cache-op driver interface shared by the two implementations.
pub trait DriverCache {
    /// Human-readable implementation name used in the report.
    fn name(&self) -> &'static str;
    /// Cached read; returns simulated cost.
    ///
    /// # Errors
    ///
    /// Propagates memory errors, as [`rack_sim::cache::NodeCache::read`].
    fn read(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &mut [u8],
    ) -> Result<u64, SimError>;
    /// Cached write; returns simulated cost.
    ///
    /// # Errors
    ///
    /// Propagates memory errors, as [`rack_sim::cache::NodeCache::write`].
    fn write(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &[u8],
    ) -> Result<u64, SimError>;
    /// Drop cached lines; returns simulated cost.
    fn invalidate(&self, lat: &LatencyModel, addr: GAddr, len: usize) -> u64;
    /// Write dirty lines back, keeping them cached; returns simulated cost.
    fn writeback(&self, global: &GlobalMemory, lat: &LatencyModel, addr: GAddr, len: usize) -> u64;
}

impl DriverCache for NodeCache {
    fn name(&self) -> &'static str {
        "node_cache"
    }
    fn read(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &mut [u8],
    ) -> Result<u64, SimError> {
        NodeCache::read(self, global, lat, addr, buf)
    }
    fn write(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &[u8],
    ) -> Result<u64, SimError> {
        NodeCache::write(self, global, lat, addr, buf)
    }
    fn invalidate(&self, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        NodeCache::invalidate(self, lat, addr, len)
    }
    fn writeback(&self, global: &GlobalMemory, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        NodeCache::writeback(self, global, lat, addr, len)
    }
}

#[derive(Debug, Clone)]
struct BLine {
    data: [u8; LINE_SIZE],
    dirty: bool,
    lru_tick: u64,
}

#[derive(Debug)]
struct BaselineInner {
    lines: HashMap<u64, BLine>,
    tick: u64,
    stats: CacheStats,
    lru_queue: VecDeque<(u64, u64)>,
    max_lines: usize,
}

/// Faithful port of the original node cache: every operation takes one
/// node-wide mutex, lines live in a `HashMap`, LRU is a lazily-compacted
/// tick queue, and (as the old `NodeCtx` did) the whole `CacheStats`
/// struct is copied out under the lock and re-published after each op.
#[derive(Debug)]
pub struct BaselineCache {
    inner: Mutex<BaselineInner>,
    published: [AtomicU64; 6],
}

impl BaselineCache {
    /// An empty baseline cache with `max_lines` capacity.
    pub fn new(max_lines: usize) -> Self {
        BaselineCache {
            inner: Mutex::new(BaselineInner {
                lines: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
                lru_queue: VecDeque::new(),
                max_lines,
            }),
            published: Default::default(),
        }
    }

    fn publish(&self, s: CacheStats) {
        for (cell, v) in self.published.iter().zip([
            s.hits,
            s.misses,
            s.allocs,
            s.writebacks,
            s.invalidations,
            s.evictions,
        ]) {
            cell.store(v, Ordering::Relaxed);
        }
    }
}

impl BaselineInner {
    fn touch(&mut self, line_id: u64) {
        self.tick += 1;
        if let Some(l) = self.lines.get_mut(&line_id) {
            l.lru_tick = self.tick;
            self.lru_queue.push_back((line_id, self.tick));
        }
        if self.lru_queue.len() > self.lines.len() * 4 + 64 {
            let lines = &self.lines;
            self.lru_queue
                .retain(|(id, t)| lines.get(id).map(|l| l.lru_tick == *t).unwrap_or(false));
        }
    }

    fn enforce_capacity(&mut self, global: &GlobalMemory, lat: &LatencyModel) -> u64 {
        let mut cost = 0;
        while self.lines.len() > self.max_lines {
            let victim = loop {
                match self.lru_queue.pop_front() {
                    Some((id, t)) => {
                        if self
                            .lines
                            .get(&id)
                            .map(|l| l.lru_tick == t)
                            .unwrap_or(false)
                        {
                            break Some(id);
                        }
                    }
                    None => break None,
                }
            };
            let victim = match victim.or_else(|| {
                self.lines
                    .iter()
                    .min_by_key(|(id, l)| (l.lru_tick, **id))
                    .map(|(id, _)| *id)
            }) {
                Some(v) => v,
                None => break,
            };
            let line = self.lines.remove(&victim).expect("present");
            self.stats.evictions += 1;
            if line.dirty {
                if global
                    .write_bytes(GAddr(victim * LINE_SIZE as u64), &line.data)
                    .is_ok()
                {
                    self.stats.writebacks += 1;
                }
                cost += lat.writeback_line_ns;
            }
        }
        cost
    }

    fn fetch_line(
        &mut self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        line_id: u64,
        first_miss: bool,
    ) -> Result<u64, SimError> {
        let mut data = [0u8; LINE_SIZE];
        global.read_bytes(GAddr(line_id * LINE_SIZE as u64), &mut data)?;
        self.tick += 1;
        self.lines.insert(
            line_id,
            BLine {
                data,
                dirty: false,
                lru_tick: self.tick,
            },
        );
        self.lru_queue.push_back((line_id, self.tick));
        self.stats.misses += 1;
        let mut cost = if first_miss {
            lat.global_read_ns
        } else {
            lat.transfer_ns(LINE_SIZE).max(1)
        };
        cost += self.enforce_capacity(global, lat);
        Ok(cost)
    }
}

impl DriverCache for BaselineCache {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn read(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &mut [u8],
    ) -> Result<u64, SimError> {
        let mut inner = self.inner.lock();
        let mut cost = 0u64;
        let mut pos = 0usize;
        let mut a = addr.0;
        let mut missed = false;
        while pos < buf.len() {
            let line_id = a / LINE_SIZE as u64;
            let in_line = (a % LINE_SIZE as u64) as usize;
            let take = (LINE_SIZE - in_line).min(buf.len() - pos);
            if inner.lines.contains_key(&line_id) {
                inner.stats.hits += 1;
                cost += lat.cache_hit_ns;
                inner.touch(line_id);
            } else {
                cost += inner.fetch_line(global, lat, line_id, !missed)?;
                missed = true;
            }
            let line = inner.lines.get(&line_id).expect("just ensured");
            buf[pos..pos + take].copy_from_slice(&line.data[in_line..in_line + take]);
            pos += take;
            a += take as u64;
        }
        let stats = inner.stats;
        drop(inner);
        self.publish(stats);
        Ok(cost)
    }

    fn write(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &[u8],
    ) -> Result<u64, SimError> {
        let mut inner = self.inner.lock();
        let mut cost = 0u64;
        let mut pos = 0usize;
        let mut a = addr.0;
        let mut missed = false;
        while pos < buf.len() {
            let line_id = a / LINE_SIZE as u64;
            let in_line = (a % LINE_SIZE as u64) as usize;
            let take = (LINE_SIZE - in_line).min(buf.len() - pos);
            if inner.lines.contains_key(&line_id) {
                inner.stats.hits += 1;
                cost += lat.cache_hit_ns;
                inner.touch(line_id);
            } else if take == LINE_SIZE {
                inner.stats.allocs += 1;
                inner.tick += 1;
                let tick = inner.tick;
                inner.lines.insert(
                    line_id,
                    BLine {
                        data: [0u8; LINE_SIZE],
                        dirty: false,
                        lru_tick: tick,
                    },
                );
                inner.lru_queue.push_back((line_id, tick));
                cost += lat.cache_hit_ns;
                cost += inner.enforce_capacity(global, lat);
            } else {
                cost += inner.fetch_line(global, lat, line_id, !missed)?;
                missed = true;
            }
            let line = inner.lines.get_mut(&line_id).expect("just ensured");
            line.data[in_line..in_line + take].copy_from_slice(&buf[pos..pos + take]);
            line.dirty = true;
            pos += take;
            a += take as u64;
        }
        let stats = inner.stats;
        drop(inner);
        self.publish(stats);
        Ok(cost)
    }

    fn invalidate(&self, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut inner = self.inner.lock();
        let mut cost = 0;
        let mut first = true;
        let last = addr.0.saturating_add(len as u64 - 1) / LINE_SIZE as u64;
        for line_id in (addr.0 / LINE_SIZE as u64)..=last {
            if inner.lines.remove(&line_id).is_some() {
                inner.stats.invalidations += 1;
                cost += if first {
                    lat.invalidate_line_ns
                } else {
                    lat.invalidate_extra_line_ns
                };
                first = false;
            }
        }
        let stats = inner.stats;
        drop(inner);
        self.publish(stats);
        cost
    }

    fn writeback(&self, global: &GlobalMemory, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut inner = self.inner.lock();
        let mut cost = 0;
        let mut first = true;
        let last = addr.0.saturating_add(len as u64 - 1) / LINE_SIZE as u64;
        for line_id in (addr.0 / LINE_SIZE as u64)..=last {
            let Some(line) = inner.lines.get_mut(&line_id).filter(|l| l.dirty) else {
                continue;
            };
            cost += if first {
                lat.writeback_line_ns
            } else {
                lat.transfer_ns(LINE_SIZE).max(1)
            };
            first = false;
            if global
                .write_bytes(GAddr(line_id * LINE_SIZE as u64), &line.data)
                .is_ok()
            {
                line.dirty = false;
                inner.stats.writebacks += 1;
            }
        }
        let stats = inner.stats;
        drop(inner);
        self.publish(stats);
        cost
    }
}

/// Parameters of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Operations in the timed region.
    pub ops: u64,
    /// Cache lines in the working set.
    pub lines: u64,
    /// Target hit ratio in permille (e.g. 950 = 95 % of reads hit).
    pub hit_permille: u64,
    /// RNG seed of the op stream.
    pub seed: u64,
    /// Measurement repetitions per point; best (shortest) run is kept, so
    /// one bad scheduling quantum cannot sink a point.
    pub reps: u32,
}

impl ScaleConfig {
    /// Full-run parameters (committed `BENCH_cache.json`).
    pub fn full(hit_permille: u64) -> Self {
        ScaleConfig {
            ops: 200_000,
            lines: 2048,
            hit_permille,
            seed: 0xCAC4E_5CA1E,
            reps: 3,
        }
    }

    /// Quick parameters for the ~1 s CI smoke run.
    pub fn quick(hit_permille: u64) -> Self {
        ScaleConfig {
            ops: 30_000,
            reps: 2,
            ..Self::full(hit_permille)
        }
    }
}

/// Result of one implementation's measurement at one hit ratio.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Implementation name (`"node_cache"` / `"baseline"`).
    pub cache_impl: &'static str,
    /// Hit-ratio target in permille.
    pub hit_permille: u64,
    /// Total cache operations.
    pub total_ops: u64,
    /// Wall-clock duration of the timed region, nanoseconds.
    pub elapsed_ns: u64,
    /// Throughput, operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Total *simulated* nanoseconds charged — must match between the two
    /// implementations for the same workload.
    pub sim_ns: u64,
}

/// The deterministic op stream against `cache`.
///
/// Returns (ops performed, simulated ns charged). The mix is ~1/8 writes;
/// a miss is forced by invalidating the target line first with
/// probability `1 - hit_permille/1000`.
fn drive(
    cache: &dyn DriverCache,
    global: &GlobalMemory,
    lat: &LatencyModel,
    cfg: ScaleConfig,
) -> (u64, u64) {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut sim_ns = 0u64;
    let mut ops = 0u64;
    let mut buf = [0u8; 8];
    for _ in 0..cfg.ops {
        let line = rng.next_below(cfg.lines);
        let addr = GAddr(line * LINE_SIZE as u64);
        if rng.next_below(1000) >= cfg.hit_permille {
            sim_ns += cache.invalidate(lat, addr, 8);
            ops += 1;
        }
        if rng.next_below(8) == 0 {
            buf = line.to_le_bytes();
            sim_ns += cache.write(global, lat, addr, &buf).expect("in bounds");
        } else {
            sim_ns += cache.read(global, lat, addr, &mut buf).expect("in bounds");
        }
        ops += 1;
    }
    std::hint::black_box(buf);
    (ops, sim_ns)
}

/// Measure one implementation.
pub fn run_point(cache: &dyn DriverCache, cfg: ScaleConfig) -> ScalePoint {
    let global = GlobalMemory::new(cfg.lines as usize * LINE_SIZE);
    let lat = LatencyModel::hccs();

    // Warm the working set before the timed region so the measured hit
    // ratio matches `hit_permille` instead of cold-start misses.
    for l in 0..cfg.lines {
        let mut b = [0u8; 8];
        cache
            .read(&global, &lat, GAddr(l * LINE_SIZE as u64), &mut b)
            .expect("warm-up read in bounds");
    }

    let start = Instant::now();
    let (total_ops, sim_ns) = drive(cache, &global, &lat, cfg);
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    ScalePoint {
        cache_impl: cache.name(),
        hit_permille: cfg.hit_permille,
        total_ops,
        elapsed_ns,
        ops_per_sec: total_ops as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        sim_ns,
    }
}

/// Best-of-`reps` measurement: a fresh cache per rep (so every rep runs
/// the identical deterministic workload) and the shortest wall-clock kept.
fn best_point(make: &dyn Fn() -> Box<dyn DriverCache>, cfg: ScaleConfig) -> ScalePoint {
    (0..cfg.reps.max(1))
        .map(|_| run_point(&*make(), cfg))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one rep")
}

/// Measure both implementations at one hit ratio, node cache first.
pub fn run_pair(cfg: ScaleConfig) -> Vec<ScalePoint> {
    vec![
        best_point(&|| Box::new(NodeCache::new(CacheConfig::default())), cfg),
        best_point(
            &|| Box::new(BaselineCache::new(CacheConfig::default().max_lines)),
            cfg,
        ),
    ]
}

/// Bytes per span of the fixed span point: one 4 KiB page, the unit the
/// chunk store, the page cache and the deduper move.
pub const SPAN_BYTES: usize = 4096;

/// Pages in the span point's working set (1 MiB: resident in the default
/// 8 MiB cache, so only the explicit invalidations make a read cold).
pub const SPAN_PAGES: u64 = 256;

/// The span point's phases, in measurement order: a cold page read
/// (every line misses), a full-page write followed by a writeback of the
/// page, and the invalidation of a resident page. Report fields are
/// `<phase>_ns_per_line`.
pub const SPAN_PHASES: [&str; 3] = ["cold_read", "write_writeback", "invalidate"];

/// One implementation's result at the fixed 4 KiB-span point, on a
/// single thread (also the shape it is re-read from a report in).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanPoint {
    /// Implementation name (`"node_cache"` / `"baseline"`).
    pub cache_impl: String,
    /// Wall-clock nanoseconds per 64 B line, per [`SPAN_PHASES`] entry.
    pub ns_per_line: [f64; 3],
    /// Total *simulated* nanoseconds over all phases — must match between
    /// the two implementations.
    pub sim_ns: u64,
}

/// Measure the span point: `rounds` sweeps over the working set, each a
/// cold read of every page, then write + writeback of every page, then
/// an invalidation of every page. Every phase keeps its best round.
pub fn run_span_point(cache: &dyn DriverCache, rounds: u32) -> SpanPoint {
    let global = GlobalMemory::new(SPAN_PAGES as usize * SPAN_BYTES);
    let lat = LatencyModel::hccs();
    let page_addr = |p: u64| GAddr(p * SPAN_BYTES as u64);
    let lines = (SPAN_PAGES as usize * SPAN_BYTES / LINE_SIZE) as f64;
    let mut buf = vec![0u8; SPAN_BYTES];
    let mut sim_ns = 0u64;
    let mut best = [f64::INFINITY; 3];
    for round in 0..rounds.max(1) {
        let mut phase = |idx: usize, op: &mut dyn FnMut(u64) -> u64| {
            let start = Instant::now();
            for p in 0..SPAN_PAGES {
                sim_ns += op(p);
            }
            best[idx] = best[idx].min(start.elapsed().as_nanos() as f64 / lines);
        };
        phase(0, &mut |p| {
            cache
                .read(&global, &lat, page_addr(p), &mut buf)
                .expect("in bounds")
        });
        let payload = vec![round as u8; SPAN_BYTES];
        phase(1, &mut |p| {
            cache
                .write(&global, &lat, page_addr(p), &payload)
                .expect("in bounds")
                + cache.writeback(&global, &lat, page_addr(p), SPAN_BYTES)
        });
        phase(2, &mut |p| cache.invalidate(&lat, page_addr(p), SPAN_BYTES));
    }
    std::hint::black_box(buf);
    SpanPoint {
        cache_impl: cache.name().into(),
        ns_per_line: best,
        sim_ns,
    }
}

/// The span point for both implementations, node cache first.
pub fn run_span_points(quick: bool) -> Vec<SpanPoint> {
    let rounds = if quick { 4 } else { 24 };
    vec![
        run_span_point(&NodeCache::new(CacheConfig::default()), rounds),
        run_span_point(
            &BaselineCache::new(CacheConfig::default().max_lines),
            rounds,
        ),
    ]
}

/// Derived gate metrics for one hit ratio.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSummary {
    /// Hit-ratio target in permille.
    pub hit_permille: u64,
    /// node-cache / baseline throughput on one thread (target: ≥
    /// [`SINGLE_THREAD_RATIO_MIN`]).
    pub single_thread_ratio: f64,
    /// Whether both impls charged identical simulated ns.
    pub sim_ns_parity: bool,
}

/// Compute the gate metrics from one [`run_pair`].
///
/// # Panics
///
/// Panics if `points` lacks either implementation.
pub fn summarize(points: &[ScalePoint]) -> ScaleSummary {
    let get = |name: &str| {
        points
            .iter()
            .find(|p| p.cache_impl == name)
            .expect("both implementations measured")
    };
    let (node, base) = (get("node_cache"), get("baseline"));
    ScaleSummary {
        hit_permille: node.hit_permille,
        single_thread_ratio: node.ops_per_sec / base.ops_per_sec,
        sim_ns_parity: node.sim_ns == base.sim_ns,
    }
}

/// Render the full report (all points + summaries) as a JSON document.
/// Hand-rolled: the workspace is hermetic, so no serde.
pub fn to_json(
    sweeps: &[(Vec<ScalePoint>, ScaleSummary)],
    spans: &[SpanPoint],
    quick: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"cache_scale\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"line_size\": {LINE_SIZE},\n"));
    out.push_str(&format!(
        "  \"targets\": {{ \"single_thread_ratio_min\": {SINGLE_THREAD_RATIO_MIN} }},\n"
    ));
    out.push_str("  \"results\": [\n");
    let mut first = true;
    for (points, _) in sweeps {
        for p in points {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{ \"impl\": \"{}\", \"hit_permille\": {}, \"total_ops\": {}, \
                 \"elapsed_ns\": {}, \"ops_per_sec\": {:.1}, \"sim_ns\": {} }}",
                p.cache_impl, p.hit_permille, p.total_ops, p.elapsed_ns, p.ops_per_sec, p.sim_ns
            ));
        }
    }
    out.push_str("\n  ],\n  \"summaries\": [\n");
    for (i, (_, s)) in sweeps.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{ \"hit_permille\": {}, \"single_thread_ratio\": {:.3}, \"sim_ns_parity\": {} }}",
            s.hit_permille, s.single_thread_ratio, s.sim_ns_parity
        ));
    }
    out.push_str("\n  ],\n  \"span_results\": [\n");
    for (i, p) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{ \"span_impl\": \"{}\", \"span_bytes\": {SPAN_BYTES}, \"pages\": {SPAN_PAGES}, ",
            p.cache_impl
        ));
        for (phase, ns) in SPAN_PHASES.iter().zip(p.ns_per_line) {
            out.push_str(&format!("\"{phase}_ns_per_line\": {ns:.1}, "));
        }
        out.push_str(&format!("\"sim_ns\": {} }}", p.sim_ns));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// One `results[]` entry re-read from a report on disk.
#[derive(Debug, Clone)]
pub struct ParsedPoint {
    /// Implementation name (`"node_cache"` / `"baseline"`).
    pub cache_impl: String,
    /// Hit-ratio target in permille.
    pub hit_permille: u64,
    /// Throughput, operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Total simulated nanoseconds charged.
    pub sim_ns: u64,
}

/// A `BENCH_cache.json` report re-read from disk (see [`parse_report`]).
#[derive(Debug, Clone)]
pub struct ParsedReport {
    /// Every measurement point, in report order.
    pub points: Vec<ParsedPoint>,
    /// The fixed 4 KiB-span point, one entry per implementation.
    pub spans: Vec<SpanPoint>,
}

impl ParsedReport {
    /// The (node cache, baseline) points at `hit_permille`, if the
    /// report has both.
    fn pair(&self, hit_permille: u64) -> Option<(&ParsedPoint, &ParsedPoint)> {
        let find = |name: &str| {
            self.points
                .iter()
                .find(|p| p.cache_impl == name && p.hit_permille == hit_permille)
        };
        Some((find("node_cache")?, find("baseline")?))
    }
}

/// Re-read a report produced by [`to_json`]. Hand-rolled like the writer
/// (hermetic workspace, no serde): each `results[]` object occupies one
/// line, so the shared [`crate::report`] line-wise extraction is exact.
///
/// # Errors
///
/// Returns a description of the first malformed line or missing field.
pub fn parse_report(json: &str) -> Result<ParsedReport, String> {
    crate::report::parse_quick(json)?;
    let mut points = Vec::new();
    for obj in crate::report::objects_with(json, "impl") {
        points.push(ParsedPoint {
            cache_impl: obj.str_field("impl")?,
            hit_permille: obj.u64_field("hit_permille")?,
            ops_per_sec: obj.f64_field("ops_per_sec")?,
            sim_ns: obj.u64_field("sim_ns")?,
        });
    }
    if points.is_empty() {
        return Err("no results[] entries found".into());
    }
    let spans = parse_span_points(json)?;
    Ok(ParsedReport { points, spans })
}

/// Re-read the `span_results[]` entries of a report produced by
/// [`to_json`].
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn parse_span_points(json: &str) -> Result<Vec<SpanPoint>, String> {
    crate::report::objects_with(json, "span_impl")
        .map(|obj| {
            let mut ns_per_line = [0.0; 3];
            for (ns, phase) in ns_per_line.iter_mut().zip(SPAN_PHASES) {
                *ns = obj.f64_field(&format!("{phase}_ns_per_line"))?;
            }
            Ok(SpanPoint {
                cache_impl: obj.str_field("span_impl")?,
                ns_per_line,
                sim_ns: obj.u64_field("sim_ns")?,
            })
        })
        .collect()
}

/// Failures of the span point shared by the smoke gate and `--check`:
/// both implementations measured, every phase timed, and identical
/// simulated cost for the identical page sweep.
pub fn span_failures(spans: &[SpanPoint]) -> Vec<String> {
    let mut failures = Vec::new();
    let find = |name: &str| spans.iter().find(|p| p.cache_impl == name);
    let (Some(node), Some(baseline)) = (find("node_cache"), find("baseline")) else {
        failures.push("report lacks the 4 KiB span point for both implementations".into());
        return failures;
    };
    if node.sim_ns != baseline.sim_ns || node.sim_ns == 0 {
        failures.push(format!(
            "span point: sim_ns parity broken: {} vs {}",
            node.sim_ns, baseline.sim_ns
        ));
    }
    for p in [node, baseline] {
        if p.ns_per_line
            .iter()
            .any(|&ns| !(ns > 0.0 && ns.is_finite()))
        {
            failures.push(format!(
                "span point: {} has an untimed phase: {:?}",
                p.cache_impl, p.ns_per_line
            ));
        }
    }
    failures
}

/// Pairs at a hit ratio whose node-cache / baseline throughput ratio,
/// recomputed from the raw points, falls below `floor`.
fn ratio_failures(report: &ParsedReport, floor: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for hit_permille in HIT_RATIOS {
        let Some((node, base)) = report.pair(hit_permille) else {
            continue;
        };
        let ratio = node.ops_per_sec / base.ops_per_sec;
        if ratio < floor {
            failures.push(format!(
                "hit_permille={hit_permille}: node cache loses to baseline \
                 ({:.0} vs {:.0} ops/s, ratio {ratio:.3} < {floor})",
                node.ops_per_sec, base.ops_per_sec
            ));
        }
    }
    failures
}

/// The invariants every report must hold (the `--gate`):
///
/// * a (node cache, baseline) pair at each of [`HIT_RATIOS`], with
///   `sim_ns` parity between them;
/// * node-cache / baseline throughput at least [`SMOKE_RATIO_MIN`];
/// * the fixed 4 KiB-span point present for both implementations, with
///   `sim_ns` parity (see [`span_failures`]).
pub fn gate_failures(report: &ParsedReport) -> Vec<String> {
    let mut failures = Vec::new();
    for hit_permille in HIT_RATIOS {
        let Some((node, base)) = report.pair(hit_permille) else {
            failures.push(format!(
                "report lacks a (node_cache, baseline) pair at hit_permille={hit_permille}"
            ));
            continue;
        };
        if node.sim_ns != base.sim_ns {
            failures.push(format!(
                "sim_ns parity broken at hit_permille={hit_permille}: {} vs {}",
                node.sim_ns, base.sim_ns
            ));
        }
    }
    failures.extend(ratio_failures(report, SMOKE_RATIO_MIN));
    failures.extend(span_failures(&report.spans));
    failures
}

/// The committed report's own target: node-cache / baseline throughput
/// at least [`SINGLE_THREAD_RATIO_MIN`] at every hit ratio (the
/// committed artifact is best-of-reps).
pub fn target_failures(report: &ParsedReport) -> Vec<String> {
    ratio_failures(report, SINGLE_THREAD_RATIO_MIN)
}

/// Run both hit ratios and the span point, printing each row, and
/// render the report.
pub fn run(quick: bool) -> String {
    println!(
        "cache: {} mode, one thread, hit ratios (permille) {HIT_RATIOS:?}",
        if quick { "quick" } else { "full" }
    );
    let mut sweeps = Vec::new();
    for hit_permille in HIT_RATIOS {
        let cfg = if quick {
            ScaleConfig::quick(hit_permille)
        } else {
            ScaleConfig::full(hit_permille)
        };
        let points = run_pair(cfg);
        for p in &points {
            println!(
                "  {:>10} hit={:.1}% {:>12.0} ops/s (sim {} ns)",
                p.cache_impl,
                p.hit_permille as f64 / 10.0,
                p.ops_per_sec,
                p.sim_ns
            );
        }
        let s = summarize(&points);
        println!(
            "  summary hit={:.1}%: single_thread_ratio={:.3} parity={}",
            s.hit_permille as f64 / 10.0,
            s.single_thread_ratio,
            s.sim_ns_parity
        );
        sweeps.push((points, s));
    }
    let spans = run_span_points(quick);
    for p in &spans {
        println!(
            "  {:>10} 4 KiB spans: {SPAN_PHASES:?} = {:.1?} ns/line (sim {} ns)",
            p.cache_impl, p.ns_per_line, p.sim_ns
        );
    }
    to_json(&sweeps, &spans, quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_impls_charge_identical_simulated_costs() {
        // The cost-model parity that makes the wall-clock comparison fair:
        // same deterministic op stream, same simulated charge.
        let cfg = ScaleConfig {
            ops: 4_000,
            lines: 128,
            hit_permille: 900,
            seed: 42,
            reps: 1,
        };
        let node = run_point(&NodeCache::new(CacheConfig::default()), cfg);
        let baseline = run_point(&BaselineCache::new(CacheConfig::default().max_lines), cfg);
        assert_eq!(node.sim_ns, baseline.sim_ns);
        assert_eq!(node.total_ops, baseline.total_ops);
        assert!(node.sim_ns > 0);
    }

    #[test]
    fn summary_reports_matched_pairs() {
        let cfg = ScaleConfig {
            ops: 500,
            lines: 32,
            hit_permille: 950,
            seed: 7,
            reps: 1,
        };
        let points = run_pair(cfg);
        let s = summarize(&points);
        assert!(s.sim_ns_parity, "identical workloads must charge equally");
        assert_eq!(s.hit_permille, 950);
        assert!(s.single_thread_ratio > 0.0);
    }

    #[test]
    fn span_point_charges_identical_simulated_costs() {
        // Whole-page spans through the node cache must cost what the
        // line-at-a-time single-mutex port charges for the same sweep.
        let spans = run_span_points(true);
        assert_eq!(spans[0].cache_impl, "node_cache");
        assert_eq!(spans[1].cache_impl, "baseline");
        assert_eq!(spans[0].sim_ns, spans[1].sim_ns);
        let parsed = parse_span_points(&to_json(&[], &spans, true)).unwrap();
        assert_eq!(parsed[0].sim_ns, spans[0].sim_ns, "report roundtrip");
        assert_eq!(span_failures(&parsed), Vec::<String>::new());
        assert!(!span_failures(&parsed[..1]).is_empty(), "one impl missing");
    }

    /// Build a minimal synthetic report through the real writer so the
    /// parser/checker tests cover the actual on-disk shape.
    fn synthetic_report(quick: bool, miss_heavy_node_ops: f64) -> String {
        let mk = |cache_impl: &'static str, hit_permille, ops| ScalePoint {
            cache_impl,
            hit_permille,
            total_ops: 1000,
            elapsed_ns: 1_000_000,
            ops_per_sec: ops,
            sim_ns: 5_000,
        };
        let sweeps = [
            vec![mk("node_cache", 950, 2_000.0), mk("baseline", 950, 1_500.0)],
            vec![
                mk("node_cache", 500, miss_heavy_node_ops),
                mk("baseline", 500, 1_000.0),
            ],
        ]
        .map(|points| {
            let s = summarize(&points);
            (points, s)
        });
        let span = |cache_impl: &str| SpanPoint {
            cache_impl: cache_impl.into(),
            ns_per_line: [50.0, 90.0, 30.0],
            sim_ns: 7_000,
        };
        let spans = [span("node_cache"), span("baseline")];
        to_json(&sweeps, &spans, quick)
    }

    #[test]
    fn parse_report_roundtrips_the_writer() {
        let json = synthetic_report(false, 1_100.0);
        let parsed = parse_report(&json).expect("writer output parses");
        assert_eq!(parsed.points.len(), 4);
        let p = &parsed.points[2];
        assert_eq!(p.cache_impl, "node_cache");
        assert_eq!(p.hit_permille, 500);
        assert_eq!(p.sim_ns, 5_000);
        assert!((p.ops_per_sec - 1_100.0).abs() < 0.5);
    }

    #[test]
    fn check_report_accepts_winning_full_run() {
        let check = |json: &str| crate::suite::Suite::Cache.check(json);
        assert_eq!(
            check(&synthetic_report(false, 1_100.0)),
            Vec::<String>::new()
        );
        // Within the 5 % tolerance still passes.
        assert_eq!(check(&synthetic_report(false, 960.0)), Vec::<String>::new());
    }

    #[test]
    fn check_report_rejects_miss_heavy_loss_and_quick_runs() {
        let check = |json: &str| crate::suite::Suite::Cache.check(json);
        let failures = check(&synthetic_report(false, 900.0));
        assert!(
            failures
                .iter()
                .any(|f| f.contains("hit_permille=500") && f.contains("loses to baseline")),
            "expected a miss-heavy loss failure, got {failures:?}"
        );

        let quick = check(&synthetic_report(true, 1_100.0));
        assert!(quick.iter().any(|f| f.contains("full run")));

        let mut no_miss_heavy = parse_report(&synthetic_report(false, 1_100.0)).unwrap();
        no_miss_heavy.points.retain(|p| p.hit_permille != 500);
        assert!(gate_failures(&no_miss_heavy)
            .iter()
            .any(|f| f.contains("pair at hit_permille=500")));

        let mut sim_mismatch = parse_report(&synthetic_report(false, 1_100.0)).unwrap();
        sim_mismatch.points[0].sim_ns += 1;
        assert!(gate_failures(&sim_mismatch)
            .iter()
            .any(|f| f.contains("parity broken at hit_permille=950")));

        let mut span_mismatch = parse_report(&synthetic_report(false, 1_100.0)).unwrap();
        span_mismatch.spans[0].sim_ns += 1;
        assert!(gate_failures(&span_mismatch)
            .iter()
            .any(|f| f.contains("span point")));
    }

    #[test]
    fn smoke_floor_gates_at_0_80_and_check_at_0_95() {
        use crate::suite::Suite;
        let gate = |ratio: f64| Suite::Cache.gate(&synthetic_report(false, ratio * 1_000.0));
        let failures = gate(0.79);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("< 0.8"), "{failures:?}");
        assert_eq!(gate(0.81), Vec::<String>::new());
        let failures = Suite::Cache.check(&synthetic_report(false, 940.0));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("< 0.95"), "{failures:?}");
    }
}
