//! Per-node execution context.
//!
//! A [`NodeCtx`] is the handle through which code "running on" a node
//! touches the simulated hardware: cached loads/stores to global memory,
//! fabric atomics, cache maintenance, local memory, and messaging. Every
//! operation charges the node's [`SimClock`] and updates its
//! [`NodeStats`]; operations fail once the node has been crashed by the
//! fault injector.

use crate::cache::{CacheConfig, NodeCache};
use crate::clock::SimClock;
use crate::error::SimError;
use crate::fault::{Fuse, NodeLiveness};
use crate::interconnect::{Interconnect, Message};
use crate::latency::LatencyModel;
use crate::memory::{GAddr, GlobalMemory, LAddr, LocalMemory};
use crate::metrics::{AddrClass, CostClass, OpKind};
use crate::stats::NodeStats;
use crate::topology::NodeId;
use std::sync::Arc;

/// The execution context of one rack node.
///
/// Cheap to share: wrap it in [`Arc`] (as [`crate::Rack`] does) and hand
/// clones of the `Arc` to the components running on the node.
#[derive(Debug)]
pub struct NodeCtx {
    id: NodeId,
    global: Arc<GlobalMemory>,
    local: LocalMemory,
    /// Locked internally, one lock per cache, so no mutex is needed here.
    cache: NodeCache,
    clock: SimClock,
    latency: Arc<LatencyModel>,
    stats: NodeStats,
    interconnect: Arc<Interconnect>,
    liveness: Arc<NodeLiveness>,
}

impl NodeCtx {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        global: Arc<GlobalMemory>,
        local_capacity: usize,
        cache_config: CacheConfig,
        latency: Arc<LatencyModel>,
        interconnect: Arc<Interconnect>,
        liveness: Arc<NodeLiveness>,
    ) -> Self {
        let cache = NodeCache::new(cache_config);
        let stats = NodeStats::new();
        // The cache records its own ops in its ledger, under its lock;
        // the stats handle reads the ledger directly.
        stats.attach_cache(cache.ledger());
        NodeCtx {
            id,
            global,
            local: LocalMemory::new(local_capacity),
            cache,
            clock: SimClock::new(),
            latency,
            stats,
            interconnect,
            liveness,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The rack's global memory pool.
    pub fn global(&self) -> &Arc<GlobalMemory> {
        &self.global
    }

    /// This node's simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The latency model in effect.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// This node's operation counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Whether this node is currently alive.
    pub fn is_alive(&self) -> bool {
        self.liveness.is_alive(self.id)
    }

    /// Gate one op on liveness and count it against an armed crash fuse
    /// ([`crate::FaultInjector::arm_crash`]): the op that burns the fuse
    /// crashes the node and fails like any op of a dead node.
    fn ensure_alive(&self) -> Result<(), SimError> {
        match self.liveness.tick(self.id) {
            Fuse::Up => Ok(()),
            Fuse::Fired => {
                (self.interconnect.faults).crash_node(self.id, self.clock.now());
                Err(SimError::NodeDown { node: self.id })
            }
            Fuse::Down => Err(SimError::NodeDown { node: self.id }),
        }
    }

    /// Charge `ns` of simulated compute time (CPU work, not memory).
    pub fn charge(&self, ns: u64) {
        let at = self.clock.advance(ns);
        self.stats
            .record_op(CostClass::Compute, OpKind::Compute, AddrClass::None, at, ns);
    }

    /// Advance the clock by `cost` and record the charge in this node's
    /// metrics (histogram by cost class + optional trace event).
    fn charge_op(&self, class: CostClass, kind: OpKind, addr_class: AddrClass, cost: u64) {
        let at = self.clock.advance(cost);
        self.stats.record_op(class, kind, addr_class, at, cost);
    }

    /// Advance the clock by the `cost` of a cache op and trace it. The
    /// cache has already recorded the op (histogram, counts, bytes)
    /// under its lock.
    fn charge_cached(&self, kind: OpKind, cost: u64) {
        let at = self.clock.advance(cost);
        self.stats.trace_op(kind, AddrClass::Global, at, cost);
    }

    /// The latency model to charge for an access to global address
    /// `addr`: under the default uniform home policy this is the node's
    /// flat model, borrowed (zero overhead, byte-identical); under an
    /// interleaved policy it is the model specialized to the
    /// requester→home distance class through the topology tree.
    fn lat_for(&self, addr: GAddr) -> std::borrow::Cow<'_, LatencyModel> {
        match self.interconnect.topology().mem_path(self.id, addr.0) {
            None => std::borrow::Cow::Borrowed(&*self.latency),
            Some((levels, bw)) => std::borrow::Cow::Owned(self.latency.for_path(levels, bw)),
        }
    }

    // ----- cached global memory access ------------------------------------

    /// Read `buf.len()` bytes at `addr` through this node's cache.
    ///
    /// May return **stale** data cached before another node's writeback;
    /// call [`NodeCtx::invalidate`] first to force a refetch.
    ///
    /// # Errors
    ///
    /// Fails on node crash, out-of-bounds, or poisoned memory.
    pub fn read(&self, addr: GAddr, buf: &mut [u8]) -> Result<(), SimError> {
        self.ensure_alive()?;
        // Spans are charged at the distance class of their first line's
        // home (interleave stripes are page-sized or larger; cached
        // spans are line bursts, so mixed-home spans are rare and the
        // approximation is one line's tail cost at most).
        let cost = self
            .cache
            .read(&self.global, &self.lat_for(addr), addr, buf)?;
        self.charge_cached(OpKind::Read, cost);
        Ok(())
    }

    /// Write `buf` at `addr` through this node's cache (write-back).
    ///
    /// Invisible to other nodes until [`NodeCtx::writeback`] /
    /// [`NodeCtx::flush`].
    ///
    /// # Errors
    ///
    /// Fails on node crash, out-of-bounds, or poisoned memory.
    pub fn write(&self, addr: GAddr, buf: &[u8]) -> Result<(), SimError> {
        self.ensure_alive()?;
        let cost = self
            .cache
            .write(&self.global, &self.lat_for(addr), addr, buf)?;
        self.charge_cached(OpKind::Write, cost);
        Ok(())
    }

    /// Convenience: cached read of an aligned u64.
    ///
    /// # Errors
    ///
    /// As [`NodeCtx::read`].
    pub fn read_u64(&self, addr: GAddr) -> Result<u64, SimError> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Convenience: cached write of an aligned u64.
    ///
    /// # Errors
    ///
    /// As [`NodeCtx::write`].
    pub fn write_u64(&self, addr: GAddr, value: u64) -> Result<(), SimError> {
        self.write(addr, &value.to_le_bytes())
    }

    // ----- cache maintenance ----------------------------------------------

    /// Write dirty cached lines covering `[addr, addr+len)` back to global
    /// memory, keeping them cached.
    pub fn writeback(&self, addr: GAddr, len: usize) {
        let cost = self
            .cache
            .writeback(&self.global, &self.lat_for(addr), addr, len);
        self.charge_cached(OpKind::Writeback, cost);
    }

    /// Drop cached lines covering `[addr, addr+len)` (un-written dirty data
    /// is discarded, as on hardware).
    pub fn invalidate(&self, addr: GAddr, len: usize) {
        let cost = self.cache.invalidate(&self.latency, addr, len);
        self.charge_cached(OpKind::Invalidate, cost);
    }

    /// Write back then invalidate `[addr, addr+len)`.
    pub fn flush(&self, addr: GAddr, len: usize) {
        let cost = self
            .cache
            .flush(&self.global, &self.lat_for(addr), addr, len);
        self.charge_cached(OpKind::Flush, cost);
    }

    /// Flush this node's entire cache.
    pub fn flush_all(&self) {
        let cost = self.cache.flush_all(&self.global, &self.latency);
        self.charge_cached(OpKind::Flush, cost);
    }

    /// Cache behaviour counters for this node (lock-free snapshot of the
    /// cache's atomics).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    // ----- uncached + atomic global access ---------------------------------

    /// Uncached load of an aligned u64 straight from global memory.
    ///
    /// # Errors
    ///
    /// Fails on node crash, bounds, alignment, or poison.
    pub fn load_uncached_u64(&self, addr: GAddr) -> Result<u64, SimError> {
        self.ensure_alive()?;
        let v = self.global.load_u64(addr)?;
        self.charge_op(
            CostClass::Uncached,
            OpKind::Read,
            AddrClass::GlobalUncached,
            self.lat_for(addr).global_read_ns,
        );
        self.stats.count_global_read(8);
        Ok(v)
    }

    /// Uncached store of an aligned u64 straight to global memory.
    ///
    /// # Errors
    ///
    /// Fails on node crash, bounds, alignment, or poison.
    pub fn store_uncached_u64(&self, addr: GAddr, value: u64) -> Result<(), SimError> {
        self.ensure_alive()?;
        self.global.store_u64(addr, value)?;
        self.charge_op(
            CostClass::Uncached,
            OpKind::Write,
            AddrClass::GlobalUncached,
            self.lat_for(addr).global_write_ns,
        );
        self.stats.count_global_write(8);
        Ok(())
    }

    /// Fabric atomic compare-exchange (bypasses all caches). Returns the
    /// previous value; success iff it equals `current`.
    ///
    /// # Errors
    ///
    /// Fails on node crash, bounds, alignment, or poison.
    pub fn compare_exchange_u64(
        &self,
        addr: GAddr,
        current: u64,
        new: u64,
    ) -> Result<u64, SimError> {
        self.ensure_alive()?;
        let prev = self.global.compare_exchange_u64(addr, current, new)?;
        self.charge_op(
            CostClass::Atomic,
            OpKind::Atomic,
            AddrClass::GlobalUncached,
            self.lat_for(addr).global_atomic_ns,
        );
        self.stats.count_atomic();
        Ok(prev)
    }

    /// Fabric atomic fetch-add (bypasses all caches); returns the previous
    /// value.
    ///
    /// # Errors
    ///
    /// Fails on node crash, bounds, alignment, or poison.
    pub fn fetch_add_u64(&self, addr: GAddr, delta: u64) -> Result<u64, SimError> {
        self.ensure_alive()?;
        let prev = self.global.fetch_add_u64(addr, delta)?;
        self.charge_op(
            CostClass::Atomic,
            OpKind::Atomic,
            AddrClass::GlobalUncached,
            self.lat_for(addr).global_atomic_ns,
        );
        self.stats.count_atomic();
        Ok(prev)
    }

    // ----- local memory -----------------------------------------------------

    /// This node's local memory arena.
    pub fn local(&self) -> &LocalMemory {
        &self.local
    }

    /// Allocate `len` bytes of local memory.
    ///
    /// # Errors
    ///
    /// Fails when the local arena is exhausted.
    pub fn local_alloc(&self, len: usize) -> Result<LAddr, SimError> {
        self.ensure_alive()?;
        self.local.alloc(len)
    }

    /// Read from local memory, charging local DRAM latency.
    ///
    /// # Errors
    ///
    /// Fails on node crash or out-of-bounds.
    pub fn local_read(&self, addr: LAddr, buf: &mut [u8]) -> Result<(), SimError> {
        self.ensure_alive()?;
        self.local.read(addr, buf)?;
        self.charge_op(
            CostClass::Local,
            OpKind::Read,
            AddrClass::Local,
            self.latency.local_read_ns,
        );
        self.stats.count_local(buf.len());
        Ok(())
    }

    /// Write to local memory, charging local DRAM latency.
    ///
    /// # Errors
    ///
    /// Fails on node crash or out-of-bounds.
    pub fn local_write(&self, addr: LAddr, buf: &[u8]) -> Result<(), SimError> {
        self.ensure_alive()?;
        self.local.write(addr, buf)?;
        self.charge_op(
            CostClass::Local,
            OpKind::Write,
            AddrClass::Local,
            self.latency.local_write_ns,
        );
        self.stats.count_local(buf.len());
        Ok(())
    }

    // ----- messaging ----------------------------------------------------------

    /// Send `payload` to `to`'s `port`, departing at this node's current
    /// simulated time. Returns the simulated arrival time.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is down or the link is severed.
    pub fn send(&self, to: NodeId, port: u16, payload: Vec<u8>) -> Result<u64, SimError> {
        self.ensure_alive()?;
        let len = payload.len();
        let depart = self.clock.now();
        let arrive = self.interconnect.send(self.id, to, port, payload, depart)?;
        // The sender is not stalled by the flight time; record the fabric
        // cost of the message without advancing the sender's clock.
        self.stats.record_op(
            CostClass::Message,
            OpKind::Send,
            AddrClass::Fabric,
            depart,
            arrive - depart,
        );
        self.stats.count_message(len);
        Ok(arrive)
    }

    /// Non-blocking receive on `port`. On success the node's clock advances
    /// to at least the message's arrival time.
    ///
    /// # Errors
    ///
    /// [`SimError::WouldBlock`] when no message is queued.
    pub fn try_recv(&self, port: u16) -> Result<Message, SimError> {
        self.ensure_alive()?;
        let msg = self.interconnect.try_recv(self.id, port)?;
        let before = self.clock.now();
        let at = self.clock.advance_to(msg.arrive_ns);
        // Cost attributed to the receiver: how long it (logically) waited.
        self.stats.record_op(
            CostClass::Message,
            OpKind::Recv,
            AddrClass::Fabric,
            at,
            at.saturating_sub(before),
        );
        Ok(msg)
    }

    /// Number of messages queued on `port`.
    pub fn pending(&self, port: u16) -> usize {
        self.interconnect.pending(self.id, port)
    }

    /// The interconnect fabric (for topology queries).
    pub fn interconnect(&self) -> &Arc<Interconnect> {
        &self.interconnect
    }
}

#[cfg(test)]
mod tests {
    use crate::rack::{Rack, RackConfig};
    use crate::SimError;

    #[test]
    fn cached_rw_charges_clock() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let a = rack.global().alloc(64, 8).unwrap();
        let before = n0.clock().now();
        n0.write_u64(a, 3).unwrap();
        assert!(n0.clock().now() > before);
        assert_eq!(n0.read_u64(a).unwrap(), 3);
    }

    #[test]
    fn incoherence_visible_through_node_api() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let a = rack.global().alloc(8, 8).unwrap();
        n0.write_u64(a, 77).unwrap();
        assert_eq!(n1.read_u64(a).unwrap(), 0, "no writeback yet");
        n0.writeback(a, 8);
        assert_eq!(n1.read_u64(a).unwrap(), 0, "n1 still caches stale line");
        n1.invalidate(a, 8);
        assert_eq!(n1.read_u64(a).unwrap(), 77);
    }

    #[test]
    fn atomics_bypass_caches() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let a = rack.global().alloc(8, 8).unwrap();
        n0.fetch_add_u64(a, 5).unwrap();
        // Visible immediately to another node's atomic/uncached access.
        assert_eq!(n1.load_uncached_u64(a).unwrap(), 5);
        assert_eq!(n1.compare_exchange_u64(a, 5, 9).unwrap(), 5);
        assert_eq!(n0.load_uncached_u64(a).unwrap(), 9);
    }

    #[test]
    fn crashed_node_operations_fail() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let a = rack.global().alloc(8, 8).unwrap();
        rack.faults().crash_node(n0.id(), 0);
        assert!(!n0.is_alive());
        assert!(matches!(n0.read_u64(a), Err(SimError::NodeDown { .. })));
        assert!(matches!(
            n0.fetch_add_u64(a, 1),
            Err(SimError::NodeDown { .. })
        ));
        rack.faults().restart_node(n0.id(), 0);
        assert!(n0.read_u64(a).is_ok());
    }

    #[test]
    fn an_armed_fuse_crashes_the_node_on_exactly_its_kth_op() {
        use crate::fault::{FaultEvent, FaultKind};
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let a = rack.global().alloc(8, 8).unwrap();
        rack.faults().arm_crash(n0.id(), 3);
        n0.store_uncached_u64(a, 1).unwrap();
        n0.fetch_add_u64(a, 1).unwrap();
        let (t, before) = (n0.clock().now(), n0.stats().snapshot());
        assert!(matches!(
            n0.compare_exchange_u64(a, 2, 9),
            Err(SimError::NodeDown { .. })
        ));
        assert_eq!(n0.clock().now(), t, "the burnt op charges nothing");
        assert_eq!(n0.stats().snapshot().global_atomics, before.global_atomics);
        assert_eq!(
            rack.global().load_u64(a).unwrap(),
            2,
            "ops 1 and 2 landed, op 3 did not"
        );
        assert!(!n0.is_alive());
        assert!(matches!(n0.read_u64(a), Err(SimError::NodeDown { .. })));
        assert!(matches!(n0.local_alloc(8), Err(SimError::NodeDown { .. })));
        assert!(matches!(
            n0.send(n1.id(), 4, vec![1]),
            Err(SimError::NodeDown { .. })
        ));
        assert_eq!(
            rack.faults().events(),
            [FaultEvent {
                kind: FaultKind::NodeCrash { node: n0.id() },
                at_ns: t
            }],
            "one crash, logged at the node's clock"
        );
        // The restart disarms: ops run past any count.
        rack.faults().restart_node(n0.id(), t);
        for _ in 0..8 {
            n0.fetch_add_u64(a, 1).unwrap();
        }
        assert_eq!(rack.global().load_u64(a).unwrap(), 10);
    }

    #[test]
    fn arming_a_dead_node_does_nothing_and_a_restart_disarms() {
        let rack = Rack::new(RackConfig::small_test());
        let n1 = rack.node(1);
        let a = rack.global().alloc(8, 8).unwrap();
        rack.faults().crash_node(n1.id(), 0);
        rack.faults().arm_crash(n1.id(), 1);
        assert!(!n1.is_alive(), "arming does not revive");
        rack.faults().restart_node(n1.id(), 0);
        n1.fetch_add_u64(a, 1).unwrap();
        // Armed, then restarted before the fuse burnt: disarmed.
        rack.faults().arm_crash(n1.id(), 1);
        rack.faults().restart_node(n1.id(), 0);
        n1.fetch_add_u64(a, 1).unwrap();
        assert!(n1.is_alive());
        assert_eq!(rack.faults().events().len(), 3, "crash and two restarts");
    }

    #[test]
    fn messaging_advances_receiver_clock() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        n0.charge(10_000);
        let arrive = n0.send(n1.id(), 4, vec![1, 2, 3]).unwrap();
        assert!(arrive > 10_000);
        let msg = n1.try_recv(4).unwrap();
        assert_eq!(msg.payload, vec![1, 2, 3]);
        assert!(n1.clock().now() >= arrive);
    }

    #[test]
    fn local_memory_rw() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let a = n0.local_alloc(32).unwrap();
        n0.local_write(a, &[4; 32]).unwrap();
        let mut out = [0u8; 32];
        n0.local_read(a, &mut out).unwrap();
        assert_eq!(out, [4; 32]);
        assert_eq!(n0.stats().snapshot().local_accesses, 2);
    }
}
