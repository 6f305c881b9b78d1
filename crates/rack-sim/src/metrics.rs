//! Simulated-time observability: latency histograms, event traces, and
//! per-subsystem counter registries.
//!
//! The paper's claims decompose into *counts and costs of interconnect
//! operations* — a configuration is fast because it issues fewer fabric
//! atomics, copies fewer bytes, or turns interconnect round-trips into
//! cache hits. The seven flat counters in [`crate::stats`] give the
//! counts; this module adds the costs and the ordering:
//!
//! * [`LatencyHistogram`] — fixed power-of-two buckets over simulated
//!   nanoseconds, one per [`CostClass`], fed by every `SimClock` charge a
//!   [`crate::NodeCtx`] makes.
//! * [`TraceRing`] — a bounded per-node ring of [`TraceEvent`]s (op kind,
//!   address class, simulated timestamp, cost). Off by default; when off,
//!   recording is a single relaxed atomic load.
//! * [`CounterRegistry`] — dynamically registered `(subsystem, counter)`
//!   cells for layers above the simulator (page cache hits, fault-box
//!   entries, IPC messages, …), merged into rack-wide reports.
//!
//! Everything here is interiorly mutable and cheap to share; all types
//! are `Sync` and recording never blocks on anything slower than a mutex
//! around a ring buffer (and that only when tracing is enabled).

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two buckets in a [`LatencyHistogram`].
///
/// Bucket 0 holds zero-cost operations; bucket `i` (for `i >= 1`) holds
/// costs in `[2^(i-1), 2^i)` ns. The last bucket additionally absorbs
/// everything at or above `2^(BUCKETS-2)` ns (~4.3 s of simulated time),
/// far beyond any single modeled operation.
pub const HIST_BUCKETS: usize = 33;

/// The cost class a simulated charge belongs to.
///
/// Classes mirror the operation taxonomy of [`crate::LatencyModel`]: what
/// kind of hardware action the simulated nanoseconds paid for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostClass {
    /// Loads/stores served from node-local DRAM.
    Local,
    /// Cached reads over global memory (hit + miss mix).
    GlobalRead,
    /// Cached writes over global memory.
    GlobalWrite,
    /// Uncached fabric loads/stores.
    Uncached,
    /// Fabric atomics (CAS / fetch-add).
    Atomic,
    /// Cache maintenance: writeback, invalidate, flush.
    CacheMaint,
    /// Interconnect messages sent.
    Message,
    /// Explicit compute charges ([`crate::NodeCtx::charge`]).
    Compute,
}

impl CostClass {
    /// All classes, in display order.
    pub const ALL: [CostClass; 8] = [
        CostClass::Local,
        CostClass::GlobalRead,
        CostClass::GlobalWrite,
        CostClass::Uncached,
        CostClass::Atomic,
        CostClass::CacheMaint,
        CostClass::Message,
        CostClass::Compute,
    ];

    /// Dense index into per-class tables.
    pub fn index(self) -> usize {
        match self {
            CostClass::Local => 0,
            CostClass::GlobalRead => 1,
            CostClass::GlobalWrite => 2,
            CostClass::Uncached => 3,
            CostClass::Atomic => 4,
            CostClass::CacheMaint => 5,
            CostClass::Message => 6,
            CostClass::Compute => 7,
        }
    }

    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CostClass::Local => "local",
            CostClass::GlobalRead => "global_read",
            CostClass::GlobalWrite => "global_write",
            CostClass::Uncached => "uncached",
            CostClass::Atomic => "atomic",
            CostClass::CacheMaint => "cache_maint",
            CostClass::Message => "message",
            CostClass::Compute => "compute",
        }
    }
}

/// What a traced operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Write,
    Atomic,
    Writeback,
    Invalidate,
    Flush,
    Send,
    Recv,
    Compute,
}

/// Which address domain a traced operation touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrClass {
    /// Rack-shared global memory (through the node cache).
    Global,
    /// Rack-shared global memory, bypassing the cache (uncached/atomic).
    GlobalUncached,
    /// Node-private local memory.
    Local,
    /// The message fabric (no memory address).
    Fabric,
    /// No address (pure compute charge).
    None,
}

/// One recorded operation: kind, address class, when (simulated), and how
/// much simulated time it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What the operation did.
    pub kind: OpKind,
    /// Which address domain it touched.
    pub addr_class: AddrClass,
    /// Simulated timestamp at which the operation completed.
    pub at_ns: u64,
    /// Simulated nanoseconds the operation cost.
    pub cost_ns: u64,
}

/// Map a simulated cost to its histogram bucket.
pub fn bucket_index(cost_ns: u64) -> usize {
    if cost_ns == 0 {
        0
    } else {
        (64 - cost_ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive-exclusive `[lo, hi)` bounds of bucket `i` in nanoseconds.
/// The final bucket's `hi` is `u64::MAX`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        _ if i >= HIST_BUCKETS - 1 => (1 << (HIST_BUCKETS - 2), u64::MAX),
        _ => (1 << (i - 1), 1 << i),
    }
}

/// A fixed-size power-of-two latency histogram over simulated nanoseconds.
///
/// Thread-safe and lock-free. [`LatencyHistogram::record`] costs two
/// relaxed `fetch_add`s (the bucket and the total) and a load of
/// `max_ns`, which it writes only when the new cost exceeds it. The
/// operation count is not stored: it is the sum of the buckets, which
/// [`LatencyHistogram::snapshot`] computes.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Add `n` to a cell that only one thread at a time writes (its writers
/// all hold one lock): a plain load and store, no read-modify-write.
/// Lock-free readers still see a whole value. A writer that does not
/// hold the lock would lose updates, never corrupt memory.
#[inline]
pub(crate) fn bump(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one operation costing `cost_ns` simulated nanoseconds.
    pub fn record(&self, cost_ns: u64) {
        self.buckets[bucket_index(cost_ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(cost_ns, Ordering::Relaxed);
        if cost_ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(cost_ns, Ordering::Relaxed);
        }
    }

    /// [`LatencyHistogram::record`] for a histogram whose every writer
    /// holds one lock (the node cache's): plain loads and stores, see
    /// [`bump`].
    #[inline]
    pub(crate) fn record_exclusive(&self, cost_ns: u64) {
        bump(&self.buckets[bucket_index(cost_ns)], 1);
        bump(&self.total_ns, cost_ns);
        if cost_ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.store(cost_ns, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket and summary counter.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// An owned copy of a [`LatencyHistogram`], mergeable across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket operation counts (see [`bucket_bounds`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total operations recorded.
    pub count: u64,
    /// Sum of all recorded costs, in simulated nanoseconds.
    pub total_ns: u64,
    /// Largest single recorded cost.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot into this one (rack-wide merging).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean cost in simulated nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate percentile (`p` in `[0, 100]`): the upper bound of the
    /// bucket containing the `p`-th percentile operation.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                // The true value lies in [lo, hi); report the bucket's
                // upper bound, capped by the observed maximum.
                return if hi == u64::MAX {
                    self.max_ns.max(lo)
                } else {
                    (hi - 1).min(self.max_ns)
                };
            }
        }
        self.max_ns
    }

    /// Render the non-empty buckets as a compact one-line summary, e.g.
    /// `n=12 mean=480ns p50<=511ns p99<=511ns max=520ns`.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={}ns p50<={}ns p99<={}ns max={}ns",
            self.count,
            self.mean_ns(),
            self.percentile_ns(50.0),
            self.percentile_ns(99.0),
            self.max_ns,
        )
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

const DEFAULT_TRACE_CAPACITY: usize = 4096;

#[derive(Debug)]
struct TraceInner {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

/// A bounded ring of [`TraceEvent`]s with cheap on/off.
///
/// Disabled by default: a disabled ring's [`TraceRing::record`] is a
/// single relaxed atomic load, so leaving tracing compiled into every hot
/// path costs nothing measurable. When the ring is full, the oldest
/// events are overwritten and counted in [`TraceRing::dropped`].
#[derive(Debug)]
pub struct TraceRing {
    enabled: AtomicBool,
    inner: Mutex<TraceInner>,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    /// A disabled ring holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(TraceInner {
                buf: Vec::with_capacity(capacity.min(1024)),
                head: 0,
                capacity,
                dropped: 0,
            }),
        }
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop recording (already-captured events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Record one event; a no-op unless enabled.
    pub fn record(&self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.buf.len() < inner.capacity {
            inner.buf.push(event);
        } else {
            let head = inner.head;
            inner.buf[head] = event;
            inner.head = (head + 1) % inner.capacity;
            inner.dropped += 1;
        }
    }

    /// Captured events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock();
        let mut out = Vec::with_capacity(inner.buf.len());
        out.extend_from_slice(&inner.buf[inner.head..]);
        out.extend_from_slice(&inner.buf[..inner.head]);
        out
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Drop all captured events (the enabled flag is unchanged).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.buf.clear();
        inner.head = 0;
        inner.dropped = 0;
    }
}

/// A named monotonically-increasing counter cell handed out by a
/// [`CounterRegistry`]. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increment the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Registry of `(subsystem, counter)` cells for the layers above the
/// simulator.
///
/// Subsystems register counters lazily by name ("page_cache"/"hit",
/// "fault_box"/"entries", "ipc"/"messages", …); hot paths should hold the
/// returned [`Counter`] rather than re-looking it up.
#[derive(Debug, Default)]
pub struct CounterRegistry {
    cells: Mutex<BTreeMap<(&'static str, &'static str), Counter>>,
    /// Debug-build budget enforcement for [`CounterRegistry::add`]: the
    /// number of one-shot calls per counter, so hot loops that should
    /// hold a [`Counter`] fail loudly in tests instead of silently
    /// serializing on the registry lock.
    #[cfg(debug_assertions)]
    one_shot_calls: Mutex<BTreeMap<(&'static str, &'static str), u64>>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (registering on first use) the counter `subsystem/name`.
    pub fn counter(&self, subsystem: &'static str, name: &'static str) -> Counter {
        self.cells
            .lock()
            .entry((subsystem, name))
            .or_default()
            .clone()
    }

    /// One-shot add to `subsystem/name` (registers on first use).
    ///
    /// Every call re-takes the registry mutex and a tree lookup, so this
    /// is for *cold* paths only (recovery, migrations, policy switches).
    /// **Do not call `add` in a loop or on a per-operation path** — hold
    /// the [`Counter`] from [`CounterRegistry::counter`] once and bump
    /// that instead; it is a single relaxed atomic. Debug builds enforce
    /// a generous per-counter call budget to catch violations in tests.
    pub fn add(&self, subsystem: &'static str, name: &'static str, delta: u64) {
        #[cfg(debug_assertions)]
        {
            let mut calls = self.one_shot_calls.lock();
            let n = calls.entry((subsystem, name)).or_insert(0);
            *n += 1;
            debug_assert!(
                *n < (1 << 20),
                "CounterRegistry::add(\"{subsystem}\", \"{name}\") called {n} times — \
                 this is a hot path; hold a Counter from CounterRegistry::counter() instead"
            );
        }
        self.counter(subsystem, name).add(delta);
    }

    /// Snapshot every registered counter, sorted by subsystem then name.
    pub fn snapshot(&self) -> Vec<SubsystemCounter> {
        self.cells
            .lock()
            .iter()
            .map(|(&(subsystem, name), cell)| SubsystemCounter {
                subsystem: subsystem.to_string(),
                name: name.to_string(),
                value: cell.get(),
            })
            .collect()
    }
}

/// One registered counter's point-in-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsystemCounter {
    /// Owning subsystem, e.g. `"page_cache"`.
    pub subsystem: String,
    /// Counter name within the subsystem, e.g. `"hit"`.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Merge counter snapshots from several nodes, summing same-named cells.
pub fn merge_counters(snapshots: &[Vec<SubsystemCounter>]) -> Vec<SubsystemCounter> {
    let mut merged: BTreeMap<(String, String), u64> = BTreeMap::new();
    for snap in snapshots {
        for c in snap {
            *merged
                .entry((c.subsystem.clone(), c.name.clone()))
                .or_default() += c.value;
        }
    }
    merged
        .into_iter()
        .map(|((subsystem, name), value)| SubsystemCounter {
            subsystem,
            name,
            value,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // bounds and index agree on every bucket edge
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo edge of bucket {i}");
            if hi != u64::MAX {
                assert_eq!(bucket_index(hi - 1), i, "hi edge of bucket {i}");
                assert_eq!(bucket_index(hi), i + 1);
            }
        }
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let h = LatencyHistogram::new();
        for ns in [0, 1, 90, 480, 480, 700] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.total_ns, 1751);
        assert_eq!(s.max_ns, 700);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[7], 1); // 90 in [64,128)
        assert_eq!(s.buckets[9], 2); // 480 in [256,512)
        assert_eq!(s.buckets[10], 1); // 700 in [512,1024)
        assert_eq!(s.mean_ns(), 1751 / 6);
        assert_eq!(s.percentile_ns(100.0), 700);
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let (a, b) = (LatencyHistogram::new(), LatencyHistogram::new());
        a.record(100);
        b.record(100);
        b.record(5000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.buckets[bucket_index(100)], 2);
        assert_eq!(m.buckets[bucket_index(5000)], 1);
        assert_eq!(m.max_ns, 5000);
    }

    #[test]
    fn histogram_reset_zeroes() {
        let h = LatencyHistogram::new();
        h.record(7);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn percentiles_pick_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8,16)
        }
        h.record(1000); // bucket [512,1024)
        let s = h.snapshot();
        assert_eq!(s.percentile_ns(50.0), 15);
        assert_eq!(s.percentile_ns(99.0), 15);
        assert_eq!(s.percentile_ns(100.0), 1000);
    }

    #[test]
    fn trace_ring_disabled_records_nothing() {
        let t = TraceRing::with_capacity(4);
        t.record(TraceEvent {
            kind: OpKind::Read,
            addr_class: AddrClass::Global,
            at_ns: 1,
            cost_ns: 1,
        });
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn trace_ring_wraps_oldest_first() {
        let t = TraceRing::with_capacity(3);
        t.enable();
        for i in 0..5u64 {
            t.record(TraceEvent {
                kind: OpKind::Write,
                addr_class: AddrClass::Local,
                at_ns: i,
                cost_ns: i,
            });
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| e.at_ns).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(t.dropped(), 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn registry_counters_accumulate_and_merge() {
        let r = CounterRegistry::new();
        let hits = r.counter("page_cache", "hit");
        hits.incr();
        hits.add(2);
        r.add("ipc", "messages", 5);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].subsystem, "ipc");
        assert_eq!(snap[0].value, 5);
        assert_eq!(snap[1].name, "hit");
        assert_eq!(snap[1].value, 3);

        let merged = merge_counters(&[snap.clone(), snap]);
        assert_eq!(merged[0].value, 10);
        assert_eq!(merged[1].value, 6);
    }
}
