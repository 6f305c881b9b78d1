//! Per-node TLBs and the rack-wide shootdown protocol.
//!
//! Each node caches recent page-table walks in a software TLB. When a
//! mapping changes, the initiator must invalidate stale entries on every
//! node — the paper's §5 notes that current fabrics lack a rack-wide IPI,
//! so the shootdown rides the interconnect message fabric
//! ([`rack_sim::Interconnect`]) as a polled doorbell, exactly the
//! workaround real systems use today.

use crate::page_table::Pte;
use flacdk::wire::{Decoder, Encoder};
use rack_sim::{NodeCtx, NodeId, SimError};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Fabric port used for shootdown requests.
pub const TLB_SHOOTDOWN_PORT: u16 = 9000;
/// Fabric port used for shootdown acknowledgements.
pub const TLB_ACK_PORT: u16 = 9001;

/// TLB behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups served by the TLB.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries removed by invalidations (local or shootdown).
    pub invalidations: u64,
    /// Shootdown requests serviced for peers.
    pub shootdowns_serviced: u64,
    /// Shootdown request/ack rounds this node initiated. A ranged
    /// shootdown over a 2 MiB region is one round, exactly like a
    /// single-page shootdown — the counter the huge-page benches use to
    /// show 512 rounds collapsing to 1.
    pub shootdown_rounds: u64,
}

/// One node's software TLB.
#[derive(Debug)]
pub struct Tlb {
    node: Arc<NodeCtx>,
    entries: HashMap<(u64, u64), Pte>,
    order: VecDeque<(u64, u64)>,
    capacity: usize,
    stats: TlbStats,
}

impl Tlb {
    /// A TLB for `node` holding up to `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(node: Arc<NodeCtx>, capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            node,
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            stats: TlbStats::default(),
        }
    }

    /// The node that owns this TLB.
    pub fn node_id(&self) -> NodeId {
        self.node.id()
    }

    /// Look up `(asid, vpn)`; a hit costs ~1 ns of simulated time.
    pub fn lookup(&mut self, asid: u64, vpn: u64) -> Option<Pte> {
        self.node.charge(1);
        match self.entries.get(&(asid, vpn)) {
            Some(pte) => {
                self.stats.hits += 1;
                Some(*pte)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Install a translation (FIFO eviction at capacity).
    pub fn fill(&mut self, asid: u64, vpn: u64, pte: Pte) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&(asid, vpn)) {
            while let Some(victim) = self.order.pop_front() {
                if self.entries.remove(&victim).is_some() {
                    break;
                }
            }
        }
        if self.entries.insert((asid, vpn), pte).is_none() {
            self.order.push_back((asid, vpn));
        }
    }

    /// Drop one translation from this node only.
    pub fn invalidate_local(&mut self, asid: u64, vpn: u64) {
        if self.entries.remove(&(asid, vpn)).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Drop every translation in `[vpn, vpn + span)` from this node.
    pub fn invalidate_range(&mut self, asid: u64, vpn: u64, span: u64) {
        for v in vpn..vpn.saturating_add(span) {
            self.invalidate_local(asid, v);
        }
    }

    /// Drop all translations of an address space from this node.
    pub fn flush_asid(&mut self, asid: u64) {
        let before = self.entries.len();
        self.entries.retain(|(a, _), _| *a != asid);
        self.stats.invalidations += (before - self.entries.len()) as u64;
    }

    /// Number of resident translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Behaviour counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Broadcast a shootdown of `(asid, [vpn, vpn + span))` to `peers`,
    /// invalidating locally first: one request per peer (and later one
    /// ack) covers the whole span, so a 2 MiB region costs the same
    /// number of fabric rounds as one page. Peers must then call
    /// [`Tlb::service_shootdowns`]; the initiator completes with
    /// [`Tlb::collect_acks`].
    ///
    /// # Errors
    ///
    /// Fabric errors to *live* peers are propagated; dead peers are
    /// skipped (they have no stale TLB to shoot down).
    pub fn begin_shootdown_range(
        &mut self,
        peers: &[NodeId],
        asid: u64,
        vpn: u64,
        span: u64,
    ) -> Result<usize, SimError> {
        self.invalidate_range(asid, vpn, span);
        self.stats.shootdown_rounds += 1;
        let mut expected = 0;
        for &peer in peers {
            if peer == self.node.id() {
                continue;
            }
            let mut e = Encoder::new();
            e.put_u64(self.node.id().0 as u64)
                .put_u64(asid)
                .put_u64(vpn)
                .put_u64(span);
            match self.node.send(peer, TLB_SHOOTDOWN_PORT, e.into_vec()) {
                Ok(_) => expected += 1,
                Err(SimError::NodeDown { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(expected)
    }

    /// Service pending shootdown requests from peers, invalidating the
    /// named translations and acking each initiator. Returns the number
    /// serviced.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors (acks to crashed initiators are skipped).
    pub fn service_shootdowns(&mut self) -> Result<usize, SimError> {
        let mut serviced = 0;
        loop {
            let msg = match self.node.try_recv(TLB_SHOOTDOWN_PORT) {
                Ok(m) => m,
                Err(SimError::WouldBlock) => break,
                Err(e) => return Err(e),
            };
            let mut d = Decoder::new(&msg.payload);
            let (Ok(initiator), Ok(asid), Ok(vpn)) = (d.u64(), d.u64(), d.u64()) else {
                continue;
            };
            // Pre-ranged initiators omit the span word; treat as 1 page.
            let span = d.u64().unwrap_or(1);
            self.invalidate_range(asid, vpn, span);
            self.stats.shootdowns_serviced += 1;
            serviced += 1;
            match self
                .node
                .send(NodeId(initiator as usize), TLB_ACK_PORT, vec![1])
            {
                Ok(_) | Err(SimError::NodeDown { .. }) | Err(SimError::LinkDown { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(serviced)
    }

    /// Collect up to `expected` acks; returns how many arrived.
    pub fn collect_acks(&mut self, expected: usize) -> usize {
        let mut got = 0;
        while got < expected {
            match self.node.try_recv(TLB_ACK_PORT) {
                Ok(_) => got += 1,
                Err(_) => break,
            }
        }
        got
    }
}

/// Cooperative full-rack shootdown for single-threaded simulations:
/// initiator broadcasts, every other TLB services, initiator collects.
/// One broadcast/service/ack cycle covers `[vpn, vpn + span)` on every
/// node.
///
/// # Errors
///
/// Propagates fabric errors.
///
/// # Panics
///
/// Panics if `initiator` is out of range.
pub fn shootdown_stepped_range(
    tlbs: &mut [Tlb],
    initiator: usize,
    asid: u64,
    vpn: u64,
    span: u64,
) -> Result<(), SimError> {
    let peers: Vec<NodeId> = tlbs.iter().map(|t| t.node_id()).collect();
    let expected = tlbs[initiator].begin_shootdown_range(&peers, asid, vpn, span)?;
    for (i, tlb) in tlbs.iter_mut().enumerate() {
        if i != initiator {
            tlb.service_shootdowns()?;
        }
    }
    let got = tlbs[initiator].collect_acks(expected);
    if got < expected {
        return Err(SimError::Protocol(format!(
            "shootdown acks: {got}/{expected}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysFrame;
    use rack_sim::{GAddr, Rack, RackConfig};

    fn pte(addr: u64) -> Pte {
        Pte::new(PhysFrame::Global(GAddr(addr)), true)
    }

    #[test]
    fn fill_lookup_hit_miss() {
        let rack = Rack::new(RackConfig::small_test());
        let mut t = Tlb::new(rack.node(0), 4);
        assert_eq!(t.lookup(1, 5), None);
        t.fill(1, 5, pte(0x1000));
        assert_eq!(t.lookup(1, 5), Some(pte(0x1000)));
        assert_eq!(t.lookup(2, 5), None, "asid distinguishes");
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let rack = Rack::new(RackConfig::small_test());
        let mut t = Tlb::new(rack.node(0), 2);
        t.fill(1, 1, pte(0x1000));
        t.fill(1, 2, pte(0x2000));
        t.fill(1, 3, pte(0x3000));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(1, 1), None, "oldest evicted");
        assert!(t.lookup(1, 3).is_some());
    }

    #[test]
    fn flush_asid_clears_only_that_space() {
        let rack = Rack::new(RackConfig::small_test());
        let mut t = Tlb::new(rack.node(0), 8);
        t.fill(1, 1, pte(0x1000));
        t.fill(1, 2, pte(0x2000));
        t.fill(2, 1, pte(0x3000));
        t.flush_asid(1);
        assert!(t.lookup(1, 1).is_none());
        assert!(t.lookup(2, 1).is_some());
    }

    #[test]
    fn rack_wide_shootdown_invalidates_everywhere() {
        let rack = Rack::new(RackConfig::n_node(3));
        let mut tlbs: Vec<Tlb> = (0..3).map(|i| Tlb::new(rack.node(i), 8)).collect();
        for t in &mut tlbs {
            t.fill(1, 7, pte(0x7000));
        }
        shootdown_stepped_range(&mut tlbs, 0, 1, 7, 1).unwrap();
        for t in &mut tlbs {
            assert_eq!(t.lookup(1, 7), None);
        }
        assert_eq!(tlbs[1].stats().shootdowns_serviced, 1);
    }

    #[test]
    fn ranged_shootdown_is_one_round_per_peer_regardless_of_span() {
        let rack = Rack::new(RackConfig::n_node(4));
        for span in [1u64, 7, 512] {
            let mut tlbs: Vec<Tlb> = (0..4).map(|i| Tlb::new(rack.node(i), 1024)).collect();
            for t in &mut tlbs {
                for v in 0..span {
                    t.fill(1, 100 + v, pte(0x1000 + v * 0x1000));
                }
            }
            let peers: Vec<NodeId> = tlbs.iter().map(|t| t.node_id()).collect();
            let expected = tlbs[0].begin_shootdown_range(&peers, 1, 100, span).unwrap();
            // Exactly one request landed on each peer, whatever the span.
            assert_eq!(expected, 3);
            for (i, t) in tlbs.iter_mut().enumerate().skip(1) {
                assert_eq!(
                    t.service_shootdowns().unwrap(),
                    1,
                    "peer {i} serviced one request for span {span}"
                );
                assert!(t.is_empty(), "whole span invalidated on peer {i}");
            }
            // Exactly one ack came back from each peer.
            assert_eq!(tlbs[0].collect_acks(expected), 3);
            assert!(
                tlbs[0].node.try_recv(TLB_ACK_PORT).is_err(),
                "no extra acks"
            );
            assert_eq!(tlbs[0].stats().shootdown_rounds, 1);
            assert_eq!(tlbs[1].stats().shootdowns_serviced, 1);
        }
    }

    #[test]
    fn ranged_stepped_shootdown_clears_span_everywhere() {
        let rack = Rack::new(RackConfig::n_node(3));
        let mut tlbs: Vec<Tlb> = (0..3).map(|i| Tlb::new(rack.node(i), 1024)).collect();
        for t in &mut tlbs {
            t.fill(1, 511, pte(0x1000)); // just below the span
            for v in 512..1024 {
                t.fill(1, v, pte(v * 0x1000));
            }
        }
        shootdown_stepped_range(&mut tlbs, 0, 1, 512, 512).unwrap();
        for t in &mut tlbs {
            assert!(t.lookup(1, 511).is_some(), "below-span entry survives");
            for v in (512..1024).step_by(97) {
                assert_eq!(t.lookup(1, v), None);
            }
        }
    }

    #[test]
    fn shootdown_skips_dead_peers() {
        let rack = Rack::new(RackConfig::n_node(3));
        let mut tlbs: Vec<Tlb> = (0..3).map(|i| Tlb::new(rack.node(i), 8)).collect();
        rack.faults().crash_node(NodeId(2), 0);
        let peers: Vec<NodeId> = tlbs.iter().map(|t| t.node_id()).collect();
        let expected = tlbs[0].begin_shootdown_range(&peers, 1, 3, 1).unwrap();
        assert_eq!(expected, 1, "only the live peer is counted");
        tlbs[1].service_shootdowns().unwrap();
        assert_eq!(tlbs[0].collect_acks(expected), 1);
    }

    #[test]
    fn refilling_same_entry_does_not_grow() {
        let rack = Rack::new(RackConfig::small_test());
        let mut t = Tlb::new(rack.node(0), 2);
        t.fill(1, 1, pte(0x1000));
        t.fill(1, 1, pte(0x2000));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(1, 1), Some(pte(0x2000)));
        assert!(!t.is_empty());
    }
}
