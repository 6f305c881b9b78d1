//! Shared operation log in global memory.
//!
//! The operation log is the backbone of replication-based synchronization
//! (§3.2), the file-system journal (§3.4), and log-replay recovery
//! (§3.2 "Reliability"): appenders claim a slot with a fabric CAS on the
//! tail, publish the payload with an explicit write-back, and then commit
//! the slot with an atomic flag store. Readers poll the tail, invalidate,
//! and read committed slots — no locks, no reliance on coherence.
//!
//! The log is a bounded ring: slots are reused after the head is advanced
//! by garbage collection (only once every consumer is known to have
//! applied past them).
//!
//! ## Readers
//!
//! Entries are small (48 B in the sync cells) and share cache lines, so
//! the unit of fabric I/O on the replay hot path is the *contiguous run*
//! of slots, not the entry:
//!
//! * [`SharedOpLog::read_range`] — one invalidate + one burst read per
//!   run. Every `SyncCell` log walk uses it: replica catch-up, the
//!   authoritative fold (`drain_to`, including the crash-recovery drain),
//!   the combiner-takeover dedup search (`nr_recover_drain`) and
//!   `SyncCell::replay`. Those callers hold the cell's host mutex, under
//!   which every append happens, so a range they read below a freshly
//!   loaded tail is settled (replica catch-up, which does not hold it,
//!   bounds itself by the authoritative watermark instead).
//! * [`SharedOpLog::read`] — per entry, bounds-checked against head and
//!   tail, flag probed uncached. It prices the `Replicated` cell
//!   backend's per-node catch-up, and serves tests that check one
//!   entry against the range reader.
//!
//! ## Writers
//!
//! Both readers leave the lines they read resident. An appender drops
//! the lines of the slots it is about to write before writing them: a
//! line read on an earlier lap holds the neighbouring slot's old bytes,
//! and its write-back would clobber the entry another node appended
//! there since.

use crate::hw::GlobalCell;
use rack_sim::{GAddr, GlobalMemory, NodeCtx, SimError, LINE_SIZE};
use std::ops::ControlFlow;

/// Slot states.
const EMPTY: u64 = 0;
const COMMITTED: u64 = 1;

/// A bounded, multi-producer shared operation log.
///
/// Copyable handle; all clones denote the same log region.
#[derive(Debug, Clone, Copy)]
pub struct SharedOpLog {
    tail: GlobalCell,
    head: GlobalCell,
    entries: GAddr,
    capacity: u64,
    entry_size: u64,
}

impl SharedOpLog {
    /// Bytes of payload a slot of `entry_size` can hold.
    pub fn payload_capacity(entry_size: usize) -> usize {
        entry_size.saturating_sub(16)
    }

    /// Allocate a log of `capacity` slots of `entry_size` bytes each
    /// (16 bytes of which are per-slot metadata).
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `entry_size < 24` or `entry_size`
    /// is not 8-byte aligned.
    pub fn alloc(
        global: &GlobalMemory,
        capacity: usize,
        entry_size: usize,
    ) -> Result<Self, SimError> {
        assert!(capacity > 0, "log capacity must be positive");
        assert!(
            entry_size >= 24,
            "entry size must hold metadata plus payload"
        );
        assert_eq!(entry_size % 8, 0, "entry size must be 8-byte aligned");
        let tail = GlobalCell::alloc(global, 0)?;
        let head = GlobalCell::alloc(global, 0)?;
        let entries = global.alloc(capacity * entry_size, LINE_SIZE)?;
        Ok(SharedOpLog {
            tail,
            head,
            entries,
            capacity: capacity as u64,
            entry_size: entry_size as u64,
        })
    }

    /// Number of slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Global address of the entry region — the log's *home* under an
    /// interleaved home policy, for NUMA-aware placement decisions.
    pub fn base(&self) -> GAddr {
        self.entries
    }

    fn slot_addr(&self, idx: u64) -> GAddr {
        self.entries.offset((idx % self.capacity) * self.entry_size)
    }

    /// Current tail (index one past the newest claimed entry).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn tail(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        self.tail.load(ctx)
    }

    /// Current head (oldest retained entry).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn head(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        self.head.load(ctx)
    }

    /// Append `payload`, returning the entry's index.
    ///
    /// Crate-private: one fabric CAS per op is the serialization the
    /// cell's flat combining amortizes, so other crates append through
    /// [`SharedOpLog::append_batch`].
    ///
    /// # Errors
    ///
    /// * [`SimError::Protocol`] if `payload` exceeds the slot payload size
    ///   or the ring is full (GC has not caught up).
    /// * Memory errors are propagated.
    pub(crate) fn append(&self, ctx: &NodeCtx, payload: &[u8]) -> Result<u64, SimError> {
        if payload.len() > Self::payload_capacity(self.entry_size as usize) {
            return Err(SimError::Protocol(format!(
                "op of {} bytes exceeds slot payload capacity {}",
                payload.len(),
                Self::payload_capacity(self.entry_size as usize)
            )));
        }
        // Claim a slot with CAS so we never claim past a full ring.
        let idx = loop {
            let tail = self.tail.load(ctx)?;
            let head = self.head.load(ctx)?;
            if tail - head >= self.capacity {
                return Err(SimError::Protocol("operation log full; GC lagging".into()));
            }
            if self.tail.compare_exchange(ctx, tail, tail + 1)? == tail {
                break tail;
            }
        };
        let slot = self.slot_addr(idx);
        // Slots share cache lines, and a line this node read earlier may
        // be resident with a neighbouring slot's old bytes; writing into
        // it would write those back over the neighbour. Drop the lines
        // first, so the write fills them fresh.
        ctx.invalidate(slot, 16 + payload.len());
        // Publish payload then length, flush, then commit flag last. The
        // flush must *invalidate*, not just write back: the uncached flag
        // store below never updates our own cached copy — a stale line
        // left resident here would be re-dirtied by a later append to the
        // neighboring slot and its write-back would clobber this entry's
        // commit flag.
        ctx.write_u64(slot.offset(8), payload.len() as u64)?;
        ctx.write(slot.offset(16), payload)?;
        ctx.flush(slot, 16 + payload.len());
        ctx.store_uncached_u64(slot, COMMITTED)?;
        Ok(idx)
    }

    /// Append a batch of payloads with a **single** fabric CAS on the
    /// tail, returning the index of the first entry. Entries land
    /// contiguously in argument order.
    ///
    /// This is the flat-combining fast path: the combiner drains every
    /// node's publication slot and commits the whole batch for the cost
    /// of one interconnect atomic. Payloads and commit flags are written
    /// through the cache and made visible with one flush per *contiguous
    /// run* of slots — batch entries are adjacent in the ring, so they
    /// share cache lines and the write-back cost amortizes across the
    /// batch instead of paying the single-op path's per-entry flush plus
    /// uncached flag store.
    ///
    /// # Errors
    ///
    /// * [`SimError::Protocol`] if the batch is empty, any payload
    ///   exceeds the slot payload size, or the ring lacks room for the
    ///   whole batch (GC has not caught up).
    /// * Memory errors are propagated.
    pub fn append_batch<P: AsRef<[u8]>>(
        &self,
        ctx: &NodeCtx,
        payloads: &[P],
    ) -> Result<u64, SimError> {
        if payloads.is_empty() {
            return Err(SimError::Protocol("empty batch append".into()));
        }
        let cap = Self::payload_capacity(self.entry_size as usize);
        for p in payloads {
            let len = p.as_ref().len();
            if len > cap {
                return Err(SimError::Protocol(format!(
                    "op of {len} bytes exceeds slot payload capacity {cap}"
                )));
            }
        }
        let k = payloads.len() as u64;
        // One CAS claims the whole run of slots.
        let first = loop {
            let tail = self.tail.load(ctx)?;
            let head = self.head.load(ctx)?;
            if tail - head + k > self.capacity {
                return Err(SimError::Protocol(format!(
                    "operation log lacks room for batch of {k}; GC lagging"
                )));
            }
            if self.tail.compare_exchange(ctx, tail, tail + k)? == tail {
                break tail;
            }
        };
        // The commit flags ride the same flush as the payloads: until the
        // flush lands, readers that invalidate-and-read see the old
        // (EMPTY) flags and treat the slots as uncommitted. The run's
        // lines are dropped before the writes and the flush invalidates,
        // both for the same reasons as in `append`. Entries are
        // contiguous except across the ring wrap, so whole runs flush at
        // once.
        let mut done = 0u64;
        while done < k {
            let start = first + done;
            let run = (self.capacity - (start % self.capacity)).min(k - done);
            let base = self.slot_addr(start);
            ctx.invalidate(base, (run * self.entry_size) as usize);
            for j in 0..run {
                let payload = payloads[(done + j) as usize].as_ref();
                let slot = base.offset(j * self.entry_size);
                ctx.write_u64(slot, COMMITTED)?;
                ctx.write_u64(slot.offset(8), payload.len() as u64)?;
                ctx.write(slot.offset(16), payload)?;
            }
            ctx.flush(base, (run * self.entry_size) as usize);
            done += run;
        }
        Ok(first)
    }

    /// Read entry `idx` if committed.
    ///
    /// Returns `Ok(None)` when the slot is claimed but not yet committed
    /// (or was never claimed).
    ///
    /// # Errors
    ///
    /// * [`SimError::Protocol`] when `idx` has been garbage-collected or
    ///   is past the tail.
    /// * Memory errors are propagated.
    pub fn read(&self, ctx: &NodeCtx, idx: u64) -> Result<Option<Vec<u8>>, SimError> {
        let head = self.head.load(ctx)?;
        let tail = self.tail.load(ctx)?;
        if idx < head {
            return Err(SimError::Protocol(format!(
                "entry {idx} already collected (head {head})"
            )));
        }
        if idx >= tail {
            return Err(SimError::Protocol(format!("entry {idx} past tail {tail}")));
        }
        let slot = self.slot_addr(idx);
        if ctx.load_uncached_u64(slot)? != COMMITTED {
            return Ok(None);
        }
        ctx.invalidate(slot, self.entry_size as usize);
        let len = ctx.read_u64(slot.offset(8))? as usize;
        if len > Self::payload_capacity(self.entry_size as usize) {
            return Err(SimError::Protocol(format!(
                "corrupt length {len} in entry {idx}"
            )));
        }
        let mut buf = vec![0u8; len];
        ctx.read(slot.offset(16), &mut buf)?;
        Ok(Some(buf))
    }

    /// Visit entries `[from, to)` in index order, one burst per
    /// *contiguous run* of slots (a run ends only at the ring wrap): one
    /// invalidate and one read of the whole run into a buffer reused
    /// across runs, then every entry is decoded from the buffer and lent
    /// to `visit` as `Some(payload)`, or `None` for an uncommitted slot.
    /// `visit` returns [`ControlFlow::Break`] to stop early. No head or
    /// tail is loaded: the caller keeps the range inside `[head, tail)`;
    /// an out-of-window index reads whatever the ring slot holds.
    ///
    /// The invalidate is issued over the run's exact byte span, so it
    /// covers the partial first and last cache line: slots share lines,
    /// and a reader that stopped mid-line must refetch that line to see
    /// entries appended into it later.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] on a corrupt length (entries before it have
    /// been visited); memory errors are propagated.
    pub fn read_range(
        &self,
        ctx: &NodeCtx,
        from: u64,
        to: u64,
        mut visit: impl FnMut(u64, Option<&[u8]>) -> ControlFlow<()>,
    ) -> Result<(), SimError> {
        let entry_size = self.entry_size as usize;
        let cap = Self::payload_capacity(entry_size);
        let mut buf = Vec::new();
        let mut start = from;
        while start < to {
            let run = (self.capacity - (start % self.capacity)).min(to - start);
            let bytes = run as usize * entry_size;
            let base = self.slot_addr(start);
            buf.resize(bytes, 0);
            ctx.invalidate(base, bytes);
            ctx.read(base, &mut buf)?;
            for (idx, slot) in (start..).zip(buf.chunks_exact(entry_size)) {
                let word = |at: usize| {
                    u64::from_le_bytes(slot[at..at + 8].try_into().expect("8-byte slot word"))
                };
                let entry = if word(0) == COMMITTED {
                    let len = word(8) as usize;
                    if len > cap {
                        return Err(SimError::Protocol(format!(
                            "corrupt length {len} in entry {idx}"
                        )));
                    }
                    Some(&slot[16..16 + len])
                } else {
                    None
                };
                if visit(idx, entry).is_break() {
                    return Ok(());
                }
            }
            start += run;
        }
        Ok(())
    }

    /// Advance the head to `new_head`, releasing slots `[head, new_head)`
    /// for reuse. The caller must guarantee every consumer has applied
    /// entries below `new_head`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if `new_head` is behind the current head or
    /// past the tail; memory errors are propagated.
    pub fn advance_head(&self, ctx: &NodeCtx, new_head: u64) -> Result<(), SimError> {
        let head = self.head.load(ctx)?;
        let tail = self.tail.load(ctx)?;
        if new_head < head || new_head > tail {
            return Err(SimError::Protocol(format!(
                "invalid head advance {head} -> {new_head} (tail {tail})"
            )));
        }
        for idx in head..new_head {
            ctx.store_uncached_u64(self.slot_addr(idx), EMPTY)?;
        }
        self.head.store(ctx, new_head)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig, SplitMix64};

    fn log(rack: &Rack, cap: usize) -> SharedOpLog {
        SharedOpLog::alloc(rack.global(), cap, 64).unwrap()
    }

    #[test]
    fn append_then_read_cross_node() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let l = log(&rack, 8);
        let idx = l.append(&n0, b"hello-log").unwrap();
        assert_eq!(idx, 0);
        assert_eq!(l.read(&n1, idx).unwrap().unwrap(), b"hello-log");
    }

    #[test]
    fn interleaved_appends_get_distinct_slots() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let l = log(&rack, 8);
        let a = l.append(&n0, b"a").unwrap();
        let b = l.append(&n1, b"b").unwrap();
        let c = l.append(&n0, b"c").unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(l.read(&n1, 0).unwrap().unwrap(), b"a");
        assert_eq!(l.read(&n0, 1).unwrap().unwrap(), b"b");
        assert_eq!(l.read(&n1, 2).unwrap().unwrap(), b"c");
    }

    #[test]
    fn ring_fills_then_reuses_after_gc() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let l = log(&rack, 4);
        for i in 0..4 {
            l.append(&n0, &[i]).unwrap();
        }
        assert!(
            matches!(l.append(&n0, b"x"), Err(SimError::Protocol(_))),
            "ring full"
        );
        l.advance_head(&n0, 2).unwrap();
        let idx = l.append(&n0, b"y").unwrap();
        assert_eq!(idx, 4);
        assert_eq!(l.read(&n0, 4).unwrap().unwrap(), b"y");
        // Collected entries are gone.
        assert!(l.read(&n0, 0).is_err());
        // Uncollected survivors still readable.
        assert_eq!(l.read(&n0, 2).unwrap().unwrap(), &[2]);
    }

    #[test]
    fn oversize_payload_rejected() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let l = log(&rack, 4);
        assert!(l.append(&n0, &[0u8; 64]).is_err());
        assert!(
            l.append(&n0, &[0u8; 48]).is_ok(),
            "exactly payload capacity fits"
        );
    }

    #[test]
    fn read_past_tail_is_error_not_none() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let l = log(&rack, 4);
        assert!(l.read(&n0, 0).is_err());
    }

    #[test]
    fn invalid_head_advances_rejected() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let l = log(&rack, 4);
        l.append(&n0, b"a").unwrap();
        l.advance_head(&n0, 1).unwrap();
        assert!(l.advance_head(&n0, 0).is_err(), "backwards");
        assert!(l.advance_head(&n0, 5).is_err(), "past tail");
    }

    #[test]
    fn batch_append_lands_contiguously_and_reads_back() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let l = log(&rack, 8);
        l.append(&n0, b"solo").unwrap();
        let first = l
            .append_batch(&n1, &[b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()])
            .unwrap();
        assert_eq!(first, 1);
        assert_eq!(l.tail(&n0).unwrap(), 4);
        assert_eq!(l.read(&n0, 1).unwrap().unwrap(), b"a");
        assert_eq!(l.read(&n0, 2).unwrap().unwrap(), b"bb");
        assert_eq!(l.read(&n0, 3).unwrap().unwrap(), b"ccc");
        // The range reader agrees with the checked path.
        let mut seen = Vec::new();
        l.read_range(&n1, 1, 4, |idx, entry| {
            seen.push((idx, entry.map(<[u8]>::to_vec)));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                (1, Some(b"a".to_vec())),
                (2, Some(b"bb".to_vec())),
                (3, Some(b"ccc".to_vec()))
            ]
        );
    }

    #[test]
    fn batch_append_uses_one_tail_atomic() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let l = log(&rack, 16);
        let before = n0.stats().snapshot().global_atomics;
        l.append_batch(&n0, &(0..8).map(|i| vec![i]).collect::<Vec<_>>())
            .unwrap();
        let after = n0.stats().snapshot().global_atomics;
        assert_eq!(after - before, 1, "one CAS amortizes the whole batch");
    }

    #[test]
    fn batch_rejects_empty_oversize_and_overflow() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let l = log(&rack, 4);
        assert!(l.append_batch::<Vec<u8>>(&n0, &[]).is_err(), "empty batch");
        assert!(
            l.append_batch(&n0, &[vec![0u8; 64]]).is_err(),
            "oversize payload"
        );
        l.append(&n0, b"x").unwrap();
        assert!(
            l.append_batch(&n0, &vec![b"a".to_vec(); 4]).is_err(),
            "batch past ring capacity"
        );
        assert_eq!(l.tail(&n0).unwrap(), 1, "failed batch claims nothing");
    }

    #[test]
    fn read_range_sees_uncommitted_as_none() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let l = log(&rack, 4);
        let first = |l: &SharedOpLog| {
            let mut got = None;
            l.read_range(&n0, 0, 1, |_, entry| {
                got = Some(entry.map(<[u8]>::to_vec));
                ControlFlow::Break(())
            })
            .unwrap();
            got.expect("one slot visited")
        };
        assert_eq!(first(&l), None, "never claimed");
        l.append(&n0, b"a").unwrap();
        assert_eq!(first(&l).unwrap(), b"a");
    }

    /// A line read on an earlier lap holds the neighbouring slot's old
    /// bytes; an append into that line must not write them back over
    /// the neighbour another node appended since.
    #[test]
    fn append_into_a_line_read_on_an_earlier_lap_keeps_the_neighbour() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        // 48-byte slots: slots 0 and 1 share the ring's first line.
        let l = SharedOpLog::alloc(rack.global(), 4, 48).unwrap();
        for batch in [false, true] {
            let base = l.tail(&n0).unwrap();
            for i in 0..4 {
                l.append(&n0, &[i]).unwrap();
            }
            l.read_range(&n1, base, base + 4, |_, _| ControlFlow::Continue(()))
                .unwrap();
            l.advance_head(&n0, base + 4).unwrap();
            let mine = l.append(&n0, b"n0 lap").unwrap();
            if batch {
                l.append_batch(&n1, &[b"n1 lap"]).unwrap();
            } else {
                l.append(&n1, b"n1 lap").unwrap();
            }
            assert_eq!(l.read(&n0, mine).unwrap().unwrap(), b"n0 lap");
            assert_eq!(l.read(&n0, mine + 1).unwrap().unwrap(), b"n1 lap");
            l.advance_head(&n0, mine + 2).unwrap();
            // Park the tail back on a lap boundary.
            for _ in 0..2 {
                l.append(&n0, b"pad").unwrap();
            }
            l.advance_head(&n0, mine + 4).unwrap();
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let l = log(&rack, 4);
        let idx = l.append(&n0, b"").unwrap();
        assert_eq!(l.read(&n0, idx).unwrap().unwrap(), Vec::<u8>::new());
    }

    /// Run `body` once per case with an independently seeded generator,
    /// labelling panics with the reproducing `(seed, case)` pair.
    fn check<F: Fn(&mut SplitMix64)>(property: &str, body: F) {
        const SEED: u64 = 0xF1AC_0001;
        for case in 0..64u64 {
            let mut rng = SplitMix64::new(SEED ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
            if let Err(panic) = result {
                eprintln!("property `{property}` failed at seed={SEED:#x} case={case}");
                std::panic::resume_unwind(panic);
            }
        }
    }

    #[test]
    fn oplog_preserves_append_order_and_content() {
        check("oplog_preserves_append_order_and_content", |rng| {
            let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
            let log = SharedOpLog::alloc(rack.global(), 64, 64).unwrap();
            let (a, b) = (rack.node(0), rack.node(1));
            let count = 1 + rng.gen_index(39);
            let payloads: Vec<Vec<u8>> = (0..count)
                .map(|_| {
                    let len = rng.gen_index(40);
                    rng.gen_bytes(len)
                })
                .collect();
            for (i, payload) in payloads.iter().enumerate() {
                // Alternate appenders across nodes.
                let node = if i % 2 == 0 { &a } else { &b };
                let idx = log.append(node, payload).unwrap();
                assert_eq!(idx, i as u64, "indices are dense and ordered");
            }
            for (i, payload) in payloads.iter().enumerate() {
                let got = log.read(&b, i as u64).unwrap().expect("committed");
                assert_eq!(&got, payload);
            }
            assert_eq!(log.tail(&a).unwrap(), payloads.len() as u64);
        });
    }

    /// Collect `[from, to)` through the range reader.
    fn range_entries(
        log: &SharedOpLog,
        node: &NodeCtx,
        from: u64,
        to: u64,
    ) -> Vec<(u64, Option<Vec<u8>>)> {
        let mut out = Vec::new();
        log.read_range(node, from, to, |idx, entry| {
            out.push((idx, entry.map(<[u8]>::to_vec)));
            ControlFlow::Continue(())
        })
        .unwrap();
        out
    }

    #[test]
    fn oplog_range_reader_matches_per_entry_reads() {
        // Property: over any log built from single and batched appends —
        // entry sizes that do and do not divide a cache line, rings small
        // enough to wrap, claimed-but-uncommitted holes — `read_range`
        // yields exactly the per-index sequence the bounds-checked per-entry
        // `read` yields, for any sub-range of the live window including the
        // empty one.
        check("oplog_range_reader_matches_per_entry_reads", |rng| {
            let rack = Rack::new(RackConfig::n_node(4).with_global_mem(1 << 20));
            let entry_size = 24 + 8 * rng.gen_index(14); // 24..=128
            let capacity = 3 + rng.gen_index(10); // 3..=12
            let log = SharedOpLog::alloc(rack.global(), capacity, entry_size).unwrap();
            let max_payload = SharedOpLog::payload_capacity(entry_size);
            let (ranged, single) = (rack.node(2), rack.node(3));
            let gc = rack.node(0);

            let (mut head, mut tail) = (0u64, 0u64);
            while tail < 3 * capacity as u64 {
                let room = capacity as u64 - (tail - head);
                if room == 0 || (tail > head && rng.gen_ratio(0.2)) {
                    head += 1 + rng.next_below(tail - head);
                    log.advance_head(&gc, head).unwrap();
                    continue;
                }
                let k = 1 + rng.next_below(room.min(4));
                let payloads: Vec<Vec<u8>> = (0..k)
                    .map(|_| {
                        let len = rng.gen_index(max_payload + 1);
                        rng.gen_bytes(len)
                    })
                    .collect();
                let node = rack.node(rng.gen_index(2));
                if k == 1 && rng.gen_bool() {
                    log.append(&node, &payloads[0]).unwrap();
                } else {
                    log.append_batch(&node, &payloads).unwrap();
                }
                tail += k;
                // The range reader walks the window as it grows, so later
                // passes start from a cache holding earlier ring laps.
                if rng.gen_ratio(0.3) {
                    range_entries(&log, &ranged, head, tail);
                }
            }
            // Holes: an appender that claimed a slot and died before the
            // commit leaves the flag word clear.
            for idx in head..tail {
                if rng.gen_ratio(0.2) {
                    let slot = (idx % capacity as u64) * entry_size as u64;
                    rack.global().store_u64(log.base().offset(slot), 0).unwrap();
                }
            }

            for _ in 0..8 {
                let from = head + rng.next_below(tail - head + 1);
                let to = from + rng.next_below(tail - from + 1);
                let want: Vec<_> = (from..to)
                    .map(|idx| (idx, log.read(&single, idx).unwrap()))
                    .collect();
                assert_eq!(
                    range_entries(&log, &ranged, from, to),
                    want,
                    "entry_size {entry_size} capacity {capacity} window [{head}, {tail}) range [{from}, {to})"
                );
            }
            let before = ranged.stats().snapshot();
            assert_eq!(range_entries(&log, &ranged, tail, tail), vec![]);
            let after = ranged.stats().snapshot();
            assert_eq!(
                after.global_reads, before.global_reads,
                "empty range reads nothing"
            );

            // An early break stops the visit right there.
            if tail > head {
                let stop = head + rng.next_below(tail - head);
                let mut visited = Vec::new();
                log.read_range(&ranged, head, tail, |idx, _| {
                    visited.push(idx);
                    if idx == stop {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .unwrap();
                assert_eq!(visited, (head..=stop).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn oplog_appends_from_threads_claim_distinct_committed_slots() {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(64 << 20));
        let log = SharedOpLog::alloc(rack.global(), 4096, 64).unwrap();
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let node = rack.node(t % rack.node_count());
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let payload = ((t * PER_THREAD + i) as u64).to_le_bytes();
                        log.append(&node, &payload).unwrap();
                    }
                });
            }
        });

        // Every entry committed, all payloads present exactly once.
        let reader = rack.node(0);
        let tail = log.tail(&reader).unwrap();
        assert_eq!(tail, (THREADS * PER_THREAD) as u64);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..tail {
            let entry = log.read(&reader, idx).unwrap().expect("committed");
            let v = u64::from_le_bytes(entry.try_into().unwrap());
            assert!(seen.insert(v), "duplicate payload {v}");
        }
        assert_eq!(seen.len(), THREADS * PER_THREAD);
    }
}
