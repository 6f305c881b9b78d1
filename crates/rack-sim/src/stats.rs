//! Per-node operation counters, latency histograms, and event traces.
//!
//! Experiments use these to explain *why* a configuration is fast or slow
//! (e.g. Figure 4's gap decomposes into copies and stack processing on the
//! networking side versus a handful of interconnect accesses for FlacOS).
//! Counts alone don't close the argument — the same op count at different
//! cost classes gives very different simulated time — so every operation
//! also lands in a per-[`CostClass`] [`LatencyHistogram`], and (when
//! enabled) in the node's bounded [`TraceRing`]. Layers above the
//! simulator register their own counters in the [`CounterRegistry`]
//! (page-cache hits, fault-box entries, IPC messages, …).

use crate::metrics::{
    AddrClass, CostClass, Counter, CounterRegistry, HistogramSnapshot, LatencyHistogram, OpKind,
    SubsystemCounter, TraceEvent, TraceRing,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared, thread-safe metrics for one node. Cloning shares the state.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Counters,
    /// Shared handle to the node cache's ledger, attached once by the
    /// owning `NodeCtx`: the cache records its behaviour counters, its
    /// reads and writes and their histograms there, under its own lock.
    /// Snapshots add the ledger to these cells; nothing is copied or
    /// published on the access path.
    cache: OnceLock<Arc<crate::cache::CacheLedger>>,
    histograms: [LatencyHistogram; CostClass::ALL.len()],
    trace: TraceRing,
    registry: CounterRegistry,
}

/// The counters of the operations the node cache does not record
/// (uncached, atomic, local and message accesses): one relaxed
/// `fetch_add` each.
#[derive(Debug, Default)]
struct Counters {
    global_reads: AtomicU64,
    global_writes: AtomicU64,
    global_atomics: AtomicU64,
    local_accesses: AtomicU64,
    local_bytes: AtomicU64,
    global_bytes: AtomicU64,
    messages_sent: AtomicU64,
    message_bytes: AtomicU64,
}

/// A point-in-time copy of a node's counters, cache behaviour,
/// per-cost-class latency histograms, and subsystem counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Cached or uncached loads from global memory.
    pub global_reads: u64,
    /// Cached or uncached stores to global memory.
    pub global_writes: u64,
    /// Fabric atomics issued.
    pub global_atomics: u64,
    /// Local-memory reads + writes.
    pub local_accesses: u64,
    /// Payload bytes served by the node-local DRAM tier.
    pub local_bytes: u64,
    /// Payload bytes served by the global pool tier (reads + writes).
    pub global_bytes: u64,
    /// Payload bytes memcpy'd by simulator operations: always
    /// `global_bytes + local_bytes`.
    pub bytes_copied: u64,
    /// Interconnect messages sent.
    pub messages_sent: u64,
    /// Interconnect payload bytes sent.
    pub message_bytes: u64,
    /// Cache line accesses served from the node cache.
    pub cache_hits: u64,
    /// Cache line accesses that fetched from global memory.
    pub cache_misses: u64,
    /// Full-line write allocations that skipped the fill.
    pub cache_allocs: u64,
    /// Dirty lines written back (explicitly or by eviction).
    pub cache_writebacks: u64,
    /// Lines dropped by invalidation.
    pub cache_invalidations: u64,
    /// Lines evicted for capacity.
    pub cache_evictions: u64,
    /// Hits that waited on another thread's in-flight line fill; always
    /// 0, since the node cache completes every fill under its lock.
    pub cache_coalesced_fills: u64,
    /// Per-cost-class latency histograms, indexed by [`CostClass::index`].
    pub histograms: [HistogramSnapshot; CostClass::ALL.len()],
    /// Subsystem counters registered by layers above the simulator.
    pub subsystems: Vec<SubsystemCounter>,
}

impl Default for StatsSnapshot {
    fn default() -> Self {
        StatsSnapshot {
            global_reads: 0,
            global_writes: 0,
            global_atomics: 0,
            local_accesses: 0,
            local_bytes: 0,
            global_bytes: 0,
            bytes_copied: 0,
            messages_sent: 0,
            message_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_allocs: 0,
            cache_writebacks: 0,
            cache_invalidations: 0,
            cache_evictions: 0,
            cache_coalesced_fills: 0,
            histograms: [HistogramSnapshot::default(); CostClass::ALL.len()],
            subsystems: Vec::new(),
        }
    }
}

impl StatsSnapshot {
    /// `[atomics, reads, writes]` issued to global memory.
    pub fn fabric_ops(&self) -> [u64; 3] {
        [self.global_atomics, self.global_reads, self.global_writes]
    }

    /// The histogram for one cost class.
    pub fn histogram(&self, class: CostClass) -> &HistogramSnapshot {
        &self.histograms[class.index()]
    }

    /// Total simulated nanoseconds across every cost class — the node's
    /// charged time decomposed by this snapshot.
    pub fn total_charged_ns(&self) -> u64 {
        self.histograms.iter().map(|h| h.total_ns).sum()
    }

    /// Fold another node's snapshot into this one (rack-wide merging).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.global_atomics += other.global_atomics;
        self.local_accesses += other.local_accesses;
        self.local_bytes += other.local_bytes;
        self.global_bytes += other.global_bytes;
        self.bytes_copied += other.bytes_copied;
        self.messages_sent += other.messages_sent;
        self.message_bytes += other.message_bytes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_allocs += other.cache_allocs;
        self.cache_writebacks += other.cache_writebacks;
        self.cache_invalidations += other.cache_invalidations;
        self.cache_evictions += other.cache_evictions;
        self.cache_coalesced_fills += other.cache_coalesced_fills;
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            a.merge(b);
        }
        let merged = crate::metrics::merge_counters(&[
            std::mem::take(&mut self.subsystems),
            other.subsystems.clone(),
        ]);
        self.subsystems = merged;
    }
}

impl NodeStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn count_global_read(&self, bytes: usize) {
        self.inner
            .counters
            .global_reads
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .global_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_global_write(&self, bytes: usize) {
        self.inner
            .counters
            .global_writes
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .global_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_atomic(&self) {
        self.inner
            .counters
            .global_atomics
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_local(&self, bytes: usize) {
        self.inner
            .counters
            .local_accesses
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .local_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_message(&self, bytes: usize) {
        self.inner
            .counters
            .messages_sent
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .message_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record one charged operation: histogram by cost class, plus a trace
    /// event when tracing is enabled.
    pub(crate) fn record_op(
        &self,
        class: CostClass,
        kind: OpKind,
        addr_class: AddrClass,
        at_ns: u64,
        cost_ns: u64,
    ) {
        self.inner.histograms[class.index()].record(cost_ns);
        self.trace_op(kind, addr_class, at_ns, cost_ns);
    }

    /// Trace one charged operation, if tracing is enabled. The node
    /// cache has already recorded its own operations' histograms.
    #[inline]
    pub(crate) fn trace_op(&self, kind: OpKind, addr_class: AddrClass, at_ns: u64, cost_ns: u64) {
        self.inner.trace.record(TraceEvent {
            kind,
            addr_class,
            at_ns,
            cost_ns,
        });
    }

    /// Attach the node cache's ledger (called once by the owning
    /// `NodeCtx` at construction). Later calls are ignored.
    pub(crate) fn attach_cache(&self, ledger: Arc<crate::cache::CacheLedger>) {
        let _ = self.inner.cache.set(ledger);
    }

    /// This node's event-trace ring (disabled by default).
    pub fn trace(&self) -> &TraceRing {
        &self.inner.trace
    }

    /// The subsystem counter registry for layers above the simulator.
    pub fn registry(&self) -> &CounterRegistry {
        &self.inner.registry
    }

    /// Convenience: get (registering on first use) a subsystem counter.
    pub fn counter(&self, subsystem: &'static str, name: &'static str) -> Counter {
        self.inner.registry.counter(subsystem, name)
    }

    /// A live histogram snapshot for one cost class: this node's own
    /// cell plus, for the classes the cache records, the cache's.
    pub fn histogram(&self, class: CostClass) -> HistogramSnapshot {
        let mut h = self.inner.histograms[class.index()].snapshot();
        if let Some(cached) = self.inner.cache.get().and_then(|l| l.histogram(class)) {
            h.merge(&cached.snapshot());
        }
        h
    }

    /// Zero every histogram (counters and traces are left untouched).
    /// Intended for experiment harnesses between repetitions, with no
    /// operation running on the node.
    pub fn reset_histograms(&self) {
        for h in &self.inner.histograms {
            h.reset();
        }
        if let Some(ledger) = self.inner.cache.get() {
            ledger.reset_histograms();
        }
    }

    /// Take a consistent-enough snapshot of all counters, cache counters,
    /// histograms, and subsystem counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let c = &self.inner.counters;
        let ledger = self.inner.cache.get();
        let k = ledger.map(|l| l.total()).unwrap_or_default();
        let [cached_reads, cached_writes, cached_bytes] =
            ledger.map(|l| l.accesses()).unwrap_or_default();
        let histograms = CostClass::ALL.map(|class| self.histogram(class));
        let global_bytes = c.global_bytes.load(Ordering::Relaxed) + cached_bytes;
        let local_bytes = c.local_bytes.load(Ordering::Relaxed);
        StatsSnapshot {
            global_reads: c.global_reads.load(Ordering::Relaxed) + cached_reads,
            global_writes: c.global_writes.load(Ordering::Relaxed) + cached_writes,
            global_atomics: c.global_atomics.load(Ordering::Relaxed),
            local_accesses: c.local_accesses.load(Ordering::Relaxed),
            local_bytes,
            global_bytes,
            bytes_copied: global_bytes + local_bytes,
            messages_sent: c.messages_sent.load(Ordering::Relaxed),
            message_bytes: c.message_bytes.load(Ordering::Relaxed),
            cache_hits: k.hits,
            cache_misses: k.misses,
            cache_allocs: k.allocs,
            cache_writebacks: k.writebacks,
            cache_invalidations: k.invalidations,
            cache_evictions: k.evictions,
            cache_coalesced_fills: k.coalesced_fills,
            histograms,
            subsystems: self.inner.registry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let s = NodeStats::new();
        let s2 = s.clone();
        s.count_global_read(8);
        s.count_global_write(16);
        s.count_atomic();
        s.count_local(4);
        s.count_message(100);
        let snap = s2.snapshot();
        assert_eq!(snap.global_reads, 1);
        assert_eq!(snap.global_writes, 1);
        assert_eq!(snap.global_atomics, 1);
        assert_eq!(snap.local_accesses, 1);
        assert_eq!(snap.messages_sent, 1);
        assert_eq!(snap.message_bytes, 100);
        assert_eq!(snap.bytes_copied, 8 + 16 + 4);
        assert_eq!(snap.global_bytes, 8 + 16, "per-tier global byte split");
        assert_eq!(snap.local_bytes, 4, "per-tier local byte split");
    }

    #[test]
    fn record_op_feeds_class_histogram_and_trace() {
        let s = NodeStats::new();
        s.trace().enable();
        s.record_op(
            CostClass::Atomic,
            OpKind::Atomic,
            AddrClass::GlobalUncached,
            700,
            700,
        );
        s.record_op(
            CostClass::GlobalRead,
            OpKind::Read,
            AddrClass::Global,
            1180,
            480,
        );
        let snap = s.snapshot();
        assert_eq!(snap.histogram(CostClass::Atomic).count, 1);
        assert_eq!(snap.histogram(CostClass::Atomic).total_ns, 700);
        assert_eq!(snap.histogram(CostClass::GlobalRead).count, 1);
        assert_eq!(snap.total_charged_ns(), 1180);
        let trace = s.trace().events();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].kind, OpKind::Atomic);
        assert_eq!(trace[1].at_ns, 1180);
    }

    #[test]
    fn snapshot_merge_sums_everything() {
        let (a, b) = (NodeStats::new(), NodeStats::new());
        a.count_global_read(8);
        a.record_op(
            CostClass::GlobalRead,
            OpKind::Read,
            AddrClass::Global,
            480,
            480,
        );
        a.registry().add("ipc", "messages", 2);
        b.count_global_read(8);
        b.record_op(
            CostClass::GlobalRead,
            OpKind::Read,
            AddrClass::Global,
            480,
            480,
        );
        b.registry().add("ipc", "messages", 3);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.global_reads, 2);
        assert_eq!(merged.histogram(CostClass::GlobalRead).count, 2);
        assert_eq!(merged.subsystems.len(), 1);
        assert_eq!(merged.subsystems[0].value, 5);
    }

    #[test]
    fn reset_histograms_keeps_counters() {
        let s = NodeStats::new();
        s.count_atomic();
        s.record_op(
            CostClass::Atomic,
            OpKind::Atomic,
            AddrClass::GlobalUncached,
            700,
            700,
        );
        s.reset_histograms();
        let snap = s.snapshot();
        assert_eq!(snap.global_atomics, 1);
        assert_eq!(snap.histogram(CostClass::Atomic).count, 0);
    }
}
