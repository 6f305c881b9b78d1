//! Single-producer single-consumer ring buffer over global memory.
//!
//! The transport primitive beneath FlacOS zero-copy IPC (§3.5): payload
//! slots live in the shared pool; head and tail indices are fabric-atomic
//! cells. The producer publishes a slot with an explicit write-back
//! *before* advancing the tail; the consumer invalidates the slot range
//! *after* observing the tail — the publish/consume discipline that makes
//! streaming data safe on a non-coherent fabric. The paper notes exactly
//! this: streaming buffers "can be easily synchronized across nodes via
//! cache invalidation".

use crate::hw::GlobalCell;
use rack_sim::{GAddr, GlobalMemory, NodeCtx, SimError, LINE_SIZE};

/// A bounded SPSC ring of byte messages in global memory.
///
/// Copyable handle; clones denote the same ring. One node must act as the
/// sole producer and one as the sole consumer.
#[derive(Debug, Clone, Copy)]
pub struct SpscRing {
    head: GlobalCell, // consumer cursor
    tail: GlobalCell, // producer cursor
    slots: GAddr,
    capacity: u64,
    slot_size: u64,
}

impl SpscRing {
    /// Payload bytes a slot of `slot_size` can carry (16 bytes of each
    /// slot hold the length and the publish timestamp).
    pub fn payload_capacity(slot_size: usize) -> usize {
        slot_size.saturating_sub(16)
    }

    /// Allocate a ring of `capacity` slots of `slot_size` bytes
    /// (8 of which hold the per-message length).
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity or a slot size below 16 / not 8-aligned.
    pub fn alloc(
        global: &GlobalMemory,
        capacity: usize,
        slot_size: usize,
    ) -> Result<Self, SimError> {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(
            slot_size >= 24 && slot_size.is_multiple_of(8),
            "slot size must be >=24 and 8-aligned"
        );
        let head = GlobalCell::alloc(global, 0)?;
        let tail = GlobalCell::alloc(global, 0)?;
        let slots = global.alloc(capacity * slot_size, LINE_SIZE)?;
        Ok(SpscRing {
            head,
            tail,
            slots,
            capacity: capacity as u64,
            slot_size: slot_size as u64,
        })
    }

    fn slot_addr(&self, idx: u64) -> GAddr {
        self.slots.offset((idx % self.capacity) * self.slot_size)
    }

    /// Messages currently queued.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn len(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        Ok(self.tail.load(ctx)? - self.head.load(ctx)?)
    }

    /// Whether the ring is empty.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn is_empty(&self, ctx: &NodeCtx) -> Result<bool, SimError> {
        Ok(self.len(ctx)? == 0)
    }

    /// Produce one message.
    ///
    /// # Errors
    ///
    /// * [`SimError::WouldBlock`] if the ring is full.
    /// * [`SimError::Protocol`] if `payload` exceeds the slot capacity.
    /// * Memory errors are propagated.
    pub fn push(&self, ctx: &NodeCtx, payload: &[u8]) -> Result<(), SimError> {
        let tail = self.tail.load(ctx)?;
        let head = self.head.load(ctx)?;
        if tail - head >= self.capacity {
            return Err(SimError::WouldBlock);
        }
        self.write_slot(ctx, tail, payload)?;
        self.tail.store(ctx, tail + 1)?;
        Ok(())
    }

    /// Fill and publish the slot at `tail` (cursor checks are the
    /// caller's job).
    fn write_slot(&self, ctx: &NodeCtx, tail: u64, payload: &[u8]) -> Result<(), SimError> {
        if payload.len() > Self::payload_capacity(self.slot_size as usize) {
            return Err(SimError::Protocol(format!(
                "message of {} bytes exceeds slot payload capacity {}",
                payload.len(),
                Self::payload_capacity(self.slot_size as usize)
            )));
        }
        let slot = self.slot_addr(tail);
        ctx.write_u64(slot, payload.len() as u64)?;
        ctx.write(slot.offset(16), payload)?;
        // Publish the payload, then stamp the publish time (when the
        // data became globally visible) and publish the header line.
        ctx.writeback(slot, 16 + payload.len());
        ctx.write_u64(slot.offset(8), ctx.clock().now())?;
        ctx.writeback(slot.offset(8), 8);
        Ok(())
    }

    /// Consume one message.
    ///
    /// # Errors
    ///
    /// [`SimError::WouldBlock`] if the ring is empty; memory errors are
    /// propagated.
    pub fn pop(&self, ctx: &NodeCtx) -> Result<Vec<u8>, SimError> {
        let head = self.head.load(ctx)?;
        let tail = self.tail.load(ctx)?;
        if head == tail {
            return Err(SimError::WouldBlock);
        }
        let msg = self.read_slot(ctx, head)?;
        self.head.store(ctx, head + 1)?;
        Ok(msg)
    }

    /// Invalidate and read the slot at `head` (cursor checks are the
    /// caller's job).
    fn read_slot(&self, ctx: &NodeCtx, head: u64) -> Result<Vec<u8>, SimError> {
        let slot = self.slot_addr(head);
        // Consume: invalidate before reading (slot lines may be cached
        // from a previous lap of the ring).
        ctx.invalidate(slot, self.slot_size as usize);
        let len = ctx.read_u64(slot)? as usize;
        if len > Self::payload_capacity(self.slot_size as usize) {
            return Err(SimError::Protocol(format!("corrupt slot length {len}")));
        }
        // Causality: the consumer cannot observe the message before the
        // producer published it (polling sees it no earlier than that).
        let publish_ts = ctx.read_u64(slot.offset(8))?;
        ctx.clock().advance_to(publish_ts);
        let mut buf = vec![0u8; len];
        ctx.read(slot.offset(16), &mut buf)?;
        Ok(buf)
    }

    /// Bind a cursor-cached producer handle to this ring.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from the one-time cursor sync.
    pub fn producer(self, ctx: &NodeCtx) -> Result<RingProducer, SimError> {
        Ok(RingProducer {
            tail: self.tail.load(ctx)?,
            head_cache: self.head.load(ctx)?,
            ring: self,
        })
    }

    /// Bind a cursor-cached consumer handle to this ring.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from the one-time cursor sync.
    pub fn consumer(self, ctx: &NodeCtx) -> Result<RingConsumer, SimError> {
        Ok(RingConsumer {
            head: self.head.load(ctx)?,
            tail_cache: self.tail.load(ctx)?,
            ring: self,
        })
    }
}

/// The producing side of a ring with locally cached cursors — the
/// standard SPSC fast path. The producer is the sole writer of `tail`,
/// so it never re-reads it from the fabric; it re-reads `head` only when
/// the ring *appears* full against the cached value. A push therefore
/// costs just the slot writes plus one fabric store, instead of two
/// extra fabric loads — the difference that lets a polling server keep
/// up with per-command messages at loadgen rates.
///
/// The SPSC contract extends naturally: exactly one `RingProducer` (or
/// raw-push caller) and one consumer may be live per ring.
#[derive(Debug)]
pub struct RingProducer {
    ring: SpscRing,
    /// Producer-owned tail cursor (authoritative local copy).
    tail: u64,
    /// Last head value observed from the consumer.
    head_cache: u64,
}

impl RingProducer {
    /// Produce one message (see [`SpscRing::push`] for the discipline).
    ///
    /// # Errors
    ///
    /// * [`SimError::WouldBlock`] if the ring is full even after
    ///   refreshing the cached head.
    /// * [`SimError::Protocol`] if `payload` exceeds the slot capacity.
    /// * Memory errors are propagated.
    pub fn push(&mut self, ctx: &NodeCtx, payload: &[u8]) -> Result<(), SimError> {
        if self.tail - self.head_cache >= self.ring.capacity {
            // Apparent full: refresh the consumer's cursor once.
            self.head_cache = self.ring.head.load(ctx)?;
            if self.tail - self.head_cache >= self.ring.capacity {
                return Err(SimError::WouldBlock);
            }
        }
        self.ring.write_slot(ctx, self.tail, payload)?;
        self.ring.tail.store(ctx, self.tail + 1)?;
        self.tail += 1;
        Ok(())
    }
}

/// The consuming side of a ring with locally cached cursors. The
/// consumer is the sole writer of `head`; it re-reads `tail` from the
/// fabric only when the ring *appears* empty, so an empty poll costs one
/// fabric load (not two) and draining a batch of `k` messages pays the
/// tail load once instead of `k` times.
#[derive(Debug)]
pub struct RingConsumer {
    ring: SpscRing,
    /// Consumer-owned head cursor (authoritative local copy).
    head: u64,
    /// Last tail value observed from the producer.
    tail_cache: u64,
}

impl RingConsumer {
    /// Consume one message.
    ///
    /// # Errors
    ///
    /// [`SimError::WouldBlock`] if the ring is empty even after
    /// refreshing the cached tail; memory errors are propagated.
    pub fn pop(&mut self, ctx: &NodeCtx) -> Result<Vec<u8>, SimError> {
        if self.tail_cache == self.head {
            // Apparent empty: refresh the producer's cursor once.
            self.tail_cache = self.ring.tail.load(ctx)?;
            if self.tail_cache == self.head {
                return Err(SimError::WouldBlock);
            }
        }
        let msg = self.ring.read_slot(ctx, self.head)?;
        self.ring.head.store(ctx, self.head + 1)?;
        self.head += 1;
        Ok(msg)
    }

    /// Messages currently queued (refreshes the cached tail if the ring
    /// appears empty).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn pending(&mut self, ctx: &NodeCtx) -> Result<u64, SimError> {
        if self.tail_cache == self.head {
            self.tail_cache = self.ring.tail.load(ctx)?;
        }
        Ok(self.tail_cache - self.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn ring(rack: &Rack, cap: usize, slot: usize) -> SpscRing {
        SpscRing::alloc(rack.global(), cap, slot).unwrap()
    }

    #[test]
    fn cross_node_fifo_roundtrip() {
        let rack = Rack::new(RackConfig::small_test());
        let (p, c) = (rack.node(0), rack.node(1));
        let r = ring(&rack, 8, 64);
        r.push(&p, b"first").unwrap();
        r.push(&p, b"second").unwrap();
        assert_eq!(r.len(&c).unwrap(), 2);
        assert_eq!(r.pop(&c).unwrap(), b"first");
        assert_eq!(r.pop(&c).unwrap(), b"second");
        assert!(matches!(r.pop(&c), Err(SimError::WouldBlock)));
    }

    #[test]
    fn full_ring_blocks_producer() {
        let rack = Rack::new(RackConfig::small_test());
        let p = rack.node(0);
        let r = ring(&rack, 2, 64);
        r.push(&p, b"a").unwrap();
        r.push(&p, b"b").unwrap();
        assert!(matches!(r.push(&p, b"c"), Err(SimError::WouldBlock)));
        r.pop(&rack.node(1)).unwrap();
        r.push(&p, b"c").unwrap();
    }

    #[test]
    fn ring_laps_reuse_slots_correctly() {
        // Consumer caches slot lines on lap 1; lap 2 must not serve them stale.
        let rack = Rack::new(RackConfig::small_test());
        let (p, c) = (rack.node(0), rack.node(1));
        let r = ring(&rack, 2, 64);
        for round in 0..6u8 {
            r.push(&p, &[round; 16]).unwrap();
            assert_eq!(r.pop(&c).unwrap(), vec![round; 16]);
        }
    }

    #[test]
    fn oversize_message_rejected() {
        let rack = Rack::new(RackConfig::small_test());
        let r = ring(&rack, 2, 32);
        assert!(matches!(
            r.push(&rack.node(0), &[0; 32]),
            Err(SimError::Protocol(_))
        ));
        assert!(r.push(&rack.node(0), &[0; 16]).is_ok());
    }

    #[test]
    fn peek_does_not_consume() {
        let rack = Rack::new(RackConfig::small_test());
        let (p, c) = (rack.node(0), rack.node(1));
        let r = ring(&rack, 4, 64);
        r.push(&p, b"xyz").unwrap();
        assert_eq!(r.len(&c).unwrap(), 1);
        assert_eq!(r.pop(&c).unwrap(), b"xyz");
    }

    #[test]
    fn cached_handles_roundtrip_and_interop_with_raw_api() {
        let rack = Rack::new(RackConfig::small_test());
        let (p, c) = (rack.node(0), rack.node(1));
        let r = ring(&rack, 4, 64);
        let mut prod = r.producer(&p).unwrap();
        let mut cons = r.consumer(&c).unwrap();
        assert!(matches!(cons.pop(&c), Err(SimError::WouldBlock)));
        prod.push(&p, b"one").unwrap();
        prod.push(&p, b"two").unwrap();
        assert_eq!(cons.pending(&c).unwrap(), 2);
        assert_eq!(cons.pop(&c).unwrap(), b"one");
        // Raw API on the same ring stays coherent with the handles.
        r.push(&p, b"three").unwrap();
        assert_eq!(cons.pop(&c).unwrap(), b"two");
        assert_eq!(cons.pop(&c).unwrap(), b"three");
        assert!(matches!(cons.pop(&c), Err(SimError::WouldBlock)));
    }

    #[test]
    fn cached_producer_sees_freed_slots_after_refresh() {
        let rack = Rack::new(RackConfig::small_test());
        let (p, c) = (rack.node(0), rack.node(1));
        let r = ring(&rack, 2, 64);
        let mut prod = r.producer(&p).unwrap();
        let mut cons = r.consumer(&c).unwrap();
        prod.push(&p, b"a").unwrap();
        prod.push(&p, b"b").unwrap();
        assert!(matches!(prod.push(&p, b"c"), Err(SimError::WouldBlock)));
        cons.pop(&c).unwrap();
        // The freed slot is found via the apparent-full head refresh.
        prod.push(&p, b"c").unwrap();
        assert_eq!(cons.pop(&c).unwrap(), b"b");
        assert_eq!(cons.pop(&c).unwrap(), b"c");
    }

    #[test]
    fn cached_cursors_reduce_polling_and_drain_cost() {
        let rack = Rack::new(RackConfig::small_test());
        let (p, c) = (rack.node(0), rack.node(1));

        // Empty poll: the cached consumer re-reads only the tail (one
        // fabric load); the raw API loads both cursors.
        let r1 = ring(&rack, 8, 64);
        let mut cons = r1.consumer(&c).unwrap();
        let t0 = c.clock().now();
        assert!(matches!(cons.pop(&c), Err(SimError::WouldBlock)));
        let cached_poll = c.clock().now() - t0;
        let t0 = c.clock().now();
        assert!(matches!(r1.pop(&c), Err(SimError::WouldBlock)));
        let raw_poll = c.clock().now() - t0;
        assert!(
            cached_poll < raw_poll,
            "cached empty poll ({cached_poll} ns) must beat raw ({raw_poll} ns)"
        );

        // Batched drain: cursor loads amortize across the batch.
        let fill = |ring: &SpscRing| {
            for i in 0..8u8 {
                ring.push(&p, &[i; 8]).unwrap();
            }
        };
        let r2 = ring(&rack, 8, 64);
        let r3 = ring(&rack, 8, 64);
        fill(&r2);
        fill(&r3);
        // Move the consumer clock past every publish timestamp so both
        // measured drains pay pure access costs, not causality jumps.
        c.clock().advance_to(p.clock().now());
        let mut cons2 = r2.consumer(&c).unwrap();
        let t0 = c.clock().now();
        for _ in 0..8 {
            cons2.pop(&c).unwrap();
        }
        let cached_drain = c.clock().now() - t0;
        let t0 = c.clock().now();
        for _ in 0..8 {
            r3.pop(&c).unwrap();
        }
        let raw_drain = c.clock().now() - t0;
        assert!(
            cached_drain < raw_drain,
            "cached drain ({cached_drain} ns) must beat raw ({raw_drain} ns)"
        );
    }

    #[test]
    fn empty_message_roundtrips() {
        let rack = Rack::new(RackConfig::small_test());
        let r = ring(&rack, 2, 24);
        r.push(&rack.node(0), b"").unwrap();
        assert_eq!(r.pop(&rack.node(1)).unwrap(), Vec::<u8>::new());
    }
}
