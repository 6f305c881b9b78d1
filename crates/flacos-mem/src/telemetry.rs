//! Lightweight page-access telemetry for the tiering daemon.
//!
//! The paper's tiering argument needs the OS to *observe* its own page
//! traffic cheaply: sampling every Nth successful page-table walk into a
//! bounded ring is the software analogue of hardware access-bit scanning.
//! [`AddressSpace::attach_sampler`](crate::AddressSpace::attach_sampler)
//! feeds a ring from the translation path; `flacos-tier` drains it on
//! each sim-time tick and folds the samples into its hotness tracker.
//!
//! The ring is deterministic: sampling is a modular counter (not random),
//! so the same access sequence always yields the same sample stream —
//! required for byte-identical storm replay.

use rack_sim::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// One sampled page access: who touched which page of which space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccess {
    /// The node whose translation was sampled.
    pub node: NodeId,
    /// The address space the page belongs to.
    pub asid: u64,
    /// The virtual page number that was touched.
    pub vpn: u64,
}

/// Telemetry counters for one ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Accesses offered to the sampler.
    pub seen: u64,
    /// Accesses that passed the 1-in-N sample gate.
    pub sampled: u64,
    /// Samples evicted because the ring was full before a drain.
    pub dropped: u64,
}

/// A bounded, sampled ring of page accesses shared between the
/// translation path (producer) and the tiering daemon (consumer).
#[derive(Debug)]
pub struct AccessRing {
    #[expect(
        clippy::disallowed_types,
        reason = "bounded, loss-tolerant sample buffer drained by the node's own \
                  tiering daemon; never consulted cross-node"
    )]
    inner: rack_sim::sync::Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    buf: VecDeque<PageAccess>,
    capacity: usize,
    sample_period: u64,
    stats: RingStats,
}

impl AccessRing {
    /// A ring holding at most `capacity` samples, keeping one access in
    /// every `sample_period` (1 = keep everything).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `sample_period` is zero.
    pub fn new(capacity: usize, sample_period: u64) -> Arc<Self> {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(sample_period > 0, "sample period must be positive");
        Arc::new(AccessRing {
            #[expect(clippy::disallowed_types, reason = "constructs `AccessRing::inner`")]
            inner: rack_sim::sync::Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity),
                capacity,
                sample_period,
                stats: RingStats::default(),
            }),
        })
    }

    /// Offer one access; kept only when the deterministic 1-in-N gate
    /// fires. A full ring evicts its oldest sample (newest data wins).
    pub fn record(&self, node: NodeId, asid: u64, vpn: u64) {
        let mut inner = self.inner.lock();
        inner.stats.seen += 1;
        if !inner.stats.seen.is_multiple_of(inner.sample_period) {
            return;
        }
        inner.stats.sampled += 1;
        if inner.buf.len() == inner.capacity {
            inner.buf.pop_front();
            inner.stats.dropped += 1;
        }
        inner.buf.push_back(PageAccess { node, asid, vpn });
    }

    /// Take every buffered sample, oldest first.
    pub fn drain(&self) -> Vec<PageAccess> {
        self.inner.lock().buf.drain(..).collect()
    }

    /// Telemetry counters so far.
    pub fn stats(&self) -> RingStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_one_keeps_everything_in_order() {
        let ring = AccessRing::new(8, 1);
        for vpn in 0..5 {
            ring.record(NodeId(0), 1, vpn);
        }
        let got: Vec<u64> = ring.drain().iter().map(|a| a.vpn).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn sampling_is_a_deterministic_modular_gate() {
        let ring = AccessRing::new(64, 4);
        for vpn in 1..=16 {
            ring.record(NodeId(2), 9, vpn);
        }
        // Every 4th offer is kept: offers 4, 8, 12, 16.
        let got: Vec<u64> = ring.drain().iter().map(|a| a.vpn).collect();
        assert_eq!(got, vec![4, 8, 12, 16]);
        let s = ring.stats();
        assert_eq!((s.seen, s.sampled, s.dropped), (16, 4, 0));
    }

    #[test]
    fn full_ring_evicts_oldest() {
        let ring = AccessRing::new(2, 1);
        for vpn in 0..5 {
            ring.record(NodeId(0), 0, vpn);
        }
        let got: Vec<u64> = ring.drain().iter().map(|a| a.vpn).collect();
        assert_eq!(got, vec![3, 4], "newest samples win");
        assert_eq!(ring.stats().dropped, 3);
    }
}
