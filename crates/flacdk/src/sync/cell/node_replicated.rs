//! The `NodeReplicated` backend: flat-combined batched log appends plus
//! per-node lazy replicas (NR/OpLog-style, §3.2 + ROADMAP item 2).
//!
//! ## Publication slots
//!
//! Every node owns one line-aligned slot in global memory holding its
//! *list* of pending ops — flat combining publishes operation lists,
//! not single ops, so one publication (one flush + one fabric atomic)
//! and one consume can carry a node's whole pending batch:
//!
//! ```text
//! +0  state   u64   FREE = 0 | PENDING = 1 | CONSUMED = 2 | first idx << 8
//! +8  len     u64   packed bytes
//! +16 packed        [op len u32][framed op ([node][seq][op])] ...
//! ```
//!
//! A publisher writes `PENDING`+`len`+packed ops through the cache,
//! makes them visible with one flush, and then raises its bit in a
//! shared summary mask with a single fabric atomic. The mask is what
//! keeps an *empty* combine cheap: one fabric read answers "anything
//! pending?" instead of a sweep over every node's slot, so the
//! self-combine fast path (one writer at a time) stays competitive with
//! delegation. A publisher crash mid-publish leaves a non-`PENDING`
//! slot (the flush is all-or-nothing) that every combiner ignores.
//!
//! ## The combiner
//!
//! Whoever CASes the combiner cell from 0 to `node+1` drains every
//! `PENDING` slot — one invalidate and one burst read over the span from
//! the first to the last flagged slot, not a round trip per slot — and
//! appends the whole batch with **one** fabric CAS on the log tail
//! ([`SharedOpLog::append_batch`]), then marks each drained slot
//! `CONSUMED | first idx << 8` so its publisher learns where its ops
//! landed (a slot's ops occupy consecutive log indices) — one flush over
//! the slot span makes all the marks visible — and only then folds the
//! batch into the authoritative state.
//! An updating node tries the claim *first*: the winner's own op rides
//! the batch straight from memory and is never published at all. Losers
//! publish, then alternate between polling their slot and re-trying the
//! claim (the previous combiner may have released before seeing them).
//!
//! ## Replicas and reads
//!
//! [`SyncCell::read`] on this backend stays linearizable: it loads the
//! tail and folds the authoritative state forward. [`SyncCell::read_local`]
//! serves from this node's lazily materialized replica with **zero
//! fabric operations** on the hit path; [`SyncCell::sync_replica`] is
//! the explicit catch-up for linearization-sensitive readers that want
//! the replica warm. Both replays read the log one *contiguous run* at a
//! time ([`SharedOpLog::read_range`]): one invalidate and one burst read
//! per run, so catching up `k` entries costs one fabric round trip plus
//! bandwidth, not `k` round trips.
//!
//! ## Crash recovery
//!
//! A combiner can die in the window between draining slots and the tail
//! CAS (nothing committed — slots still `PENDING`) or after the batch
//! landed but before consuming the slots (committed — re-appending
//! would double-apply). A publisher can die between its slot flush and
//! its mask bit (a `PENDING` slot no mask scan flags).
//! [`SyncCell::on_node_crash`] claims the combiner word — from free, or
//! from the dead holder — and drains the flagged slots plus the dead
//! node's own slot. Only a takeover can find a committed publication
//! still `PENDING` (a combine marks its slots right after its append),
//! so only a takeover searches the committed window: one range pass
//! looks up the `[node][seq]` frame of every publication's first op,
//! and only unseen ops are re-appended. Recovery runs under the host
//! mutex every append runs under, so that window holds no in-flight
//! slot. The `nr_combine_crash_*` and `nr_publish_crash_before_mask`
//! hooks expose exactly those three windows to `flac-faultstorm`.
//!
//! [`SharedOpLog::append_batch`]: crate::sync::oplog::SharedOpLog::append_batch
//! [`SharedOpLog::read_range`]: crate::sync::oplog::SharedOpLog::read_range

use super::{frame_op, lines, unframe, CellInner, SyncCell, SyncState};
use rack_sim::{GAddr, NodeCtx, NodeId, SimError};
use std::ops::ControlFlow;

/// Publication-slot states (low byte; consumed carries `first idx << 8`).
const SLOT_FREE: u64 = 0;
const SLOT_PENDING: u64 = 1;
const SLOT_CONSUMED_TAG: u64 = 2;

fn consumed_word(idx: u64) -> u64 {
    SLOT_CONSUMED_TAG | (idx << 8)
}

/// Per-op pack header inside a publication slot: a `u32` length prefix
/// before each framed op. Slot sizing accounts for one header so a
/// maximum-size op always fits a publication.
pub(super) const PACK_BYTES: usize = 4;

/// Pack framed ops into a slot payload: `[len u32][framed]` per op.
fn pack_ops(framed: &[Vec<u8>]) -> Vec<u8> {
    let total = framed.iter().map(|f| PACK_BYTES + f.len()).sum();
    let mut buf = Vec::with_capacity(total);
    for f in framed {
        buf.extend_from_slice(&(f.len() as u32).to_le_bytes());
        buf.extend_from_slice(f);
    }
    buf
}

/// Unpack a slot payload back into framed ops. `None` on any framing
/// corruption — the publication is then treated as never made.
fn unpack_ops(buf: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut ops = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        let len = u32::from_le_bytes(buf.get(at..at + PACK_BYTES)?.try_into().ok()?) as usize;
        at += PACK_BYTES;
        ops.push(buf.get(at..at + len)?.to_vec());
        at += len;
    }
    if ops.is_empty() {
        return None;
    }
    Some(ops)
}

/// A lazily materialized per-node replica: a clone of the state at a
/// log position, advanced by replaying committed entries.
#[derive(Debug)]
pub(super) struct Replica<T> {
    state: T,
    applied: u64,
}

/// One drained publication: a node's pending op list.
struct Pending {
    node: usize,
    ops: Vec<Vec<u8>>,
}

impl<T: SyncState> SyncCell<T> {
    fn slot_addr(&self, node: usize) -> GAddr {
        self.slots.offset((node * self.slot_stride) as u64)
    }

    /// Distance class (LCA level) from this node to the op log's home
    /// leaf. `0` under the uniform home policy — the log then has no
    /// home and every node is equidistant, so the claim path below is
    /// byte-identical to the distance-oblivious protocol.
    fn log_home_distance(&self, ctx: &NodeCtx) -> u32 {
        let topo = ctx.interconnect().topology();
        topo.home_of(self.log.base().0)
            .map_or(0, |home| topo.lca_level(ctx.id(), home))
    }

    /// Count a combiner claim won by a node remote from the log's home:
    /// every append and entry write of that combine crosses the topology
    /// toward the home leaf, so this is the traffic the NUMA tie-break
    /// exists to minimize.
    fn note_combiner_claim(&self, ctx: &NodeCtx) {
        if self.log_home_distance(ctx) > 0 {
            // cold-path: one bump per won combiner claim, not per op.
            ctx.stats()
                .registry()
                .add("sync", "nr_combiner_remote_claims", 1);
        }
    }

    /// Publish packed framed ops into `node`'s slot: state + length +
    /// payload go through the cache and one flush makes them visible
    /// together, then a single fabric atomic raises the node's bit in
    /// the summary mask. A combiner that sees the bit sees the flushed
    /// slot.
    fn publish_slot(&self, ctx: &NodeCtx, node: usize, packed: &[u8]) -> Result<(), SimError> {
        self.write_slot(ctx, node, packed)?;
        self.pending_mask.fetch_add(ctx, 1 << node)?;
        Ok(())
    }

    /// The first half of a publication: `PENDING`, length and payload
    /// through the cache, then one flush.
    fn write_slot(&self, ctx: &NodeCtx, node: usize, packed: &[u8]) -> Result<(), SimError> {
        let slot = self.slot_addr(node);
        ctx.write_u64(slot, SLOT_PENDING)?;
        ctx.write_u64(slot.offset(8), packed.len() as u64)?;
        ctx.write(slot.offset(16), packed)?;
        ctx.flush(slot, 16 + packed.len());
        Ok(())
    }

    /// Read one slot if it is `PENDING` (invalidate + cached reads): the
    /// dead node's slot when no mask bit flags it.
    fn read_slot(&self, ctx: &NodeCtx, node: usize) -> Result<Option<Pending>, SimError> {
        let slot = self.slot_addr(node);
        ctx.invalidate(slot, self.slot_stride);
        if ctx.read_u64(slot)? != SLOT_PENDING {
            return Ok(None);
        }
        let len = ctx.read_u64(slot.offset(8))? as usize;
        if len > self.slot_stride - 16 {
            return Ok(None); // corrupt publication; never acknowledged
        }
        let mut packed = vec![0u8; len];
        ctx.read(slot.offset(16), &mut packed)?;
        Ok(unpack_ops(&packed).map(|ops| Pending { node, ops }))
    }

    /// Decode one slot image (`slot_stride` bytes, as read from the
    /// fabric) if it is `PENDING`. A corrupt length or framing reads as
    /// not pending: the publication is never acknowledged.
    fn decode_slot(&self, node: usize, image: &[u8]) -> Option<Pending> {
        let word =
            |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().expect("8-byte slot word"));
        if word(0) != SLOT_PENDING {
            return None;
        }
        let packed = image.get(16..)?.get(..usize::try_from(word(8)).ok()?)?;
        unpack_ops(packed).map(|ops| Pending { node, ops })
    }

    /// The combine-path scan: one fabric read of the summary mask, then
    /// **one** invalidate and **one** burst read over the span from the
    /// first to the last flagged slot (slots are contiguous at
    /// `slot_stride`), decoded in node order (deterministic batch
    /// order). Returns the publications plus the mask bits they cover
    /// (the caller clears those bits once the slots are resolved). An
    /// empty combine costs one fabric read, not a slot sweep.
    ///
    /// Unflagged slots that lie inside the span ride along; that is safe
    /// because the combiner's cache never holds them dirty (its own
    /// publications and earlier consumed marks were flushed, and the
    /// combiner holds its node's publisher lock), so the invalidate
    /// discards nothing.
    fn scan_pending_masked(
        &self,
        ctx: &NodeCtx,
        skip: Option<usize>,
    ) -> Result<(Vec<Pending>, u64), SimError> {
        let mut mask = self.pending_mask.load(ctx)?;
        if let Some(me) = skip {
            mask &= !(1 << me);
        }
        if mask == 0 {
            return Ok((Vec::new(), 0));
        }
        let first = mask.trailing_zeros() as usize;
        let last = 63 - mask.leading_zeros() as usize;
        let mut image = vec![0u8; (last - first + 1) * self.slot_stride];
        ctx.invalidate(self.slot_addr(first), image.len());
        ctx.read(self.slot_addr(first), &mut image)?;
        let mut out = Vec::new();
        let mut bits = 0u64;
        for node in first..=last {
            if mask & (1 << node) == 0 {
                continue;
            }
            // A flagged slot that is not (yet) PENDING keeps its bit: a
            // later combine picks it up once the publish lands.
            let at = (node - first) * self.slot_stride;
            if let Some(p) = self.decode_slot(node, &image[at..at + self.slot_stride]) {
                bits |= 1 << node;
                out.push(p);
            }
        }
        Ok((out, bits))
    }

    /// Clear resolved publication bits from the summary mask (wrapping
    /// subtract keeps concurrently-raised bits intact).
    fn clear_mask_bits(&self, ctx: &NodeCtx, bits: u64) -> Result<(), SimError> {
        if bits != 0 {
            self.pending_mask.fetch_add(ctx, bits.wrapping_neg())?;
        }
        Ok(())
    }

    /// Tell `node`'s publisher its op landed at `idx`, one slot at a
    /// time (the recovery drain; a live combine marks its whole batch
    /// with one flush). The slot line is resident from the scan, so this
    /// is a cached write plus a line write-back, not an uncached store.
    fn mark_consumed(&self, ctx: &NodeCtx, node: usize, idx: u64) -> Result<(), SimError> {
        let slot = self.slot_addr(node);
        ctx.write_u64(slot, consumed_word(idx))?;
        ctx.flush(slot, 8);
        Ok(())
    }

    /// Abort pending publications (log full): publishers polling their
    /// slot see `FREE` and surface the error; nothing was acknowledged.
    fn abort_slots(&self, ctx: &NodeCtx, pend: &[Pending]) -> Result<(), SimError> {
        for p in pend {
            ctx.store_uncached_u64(self.slot_addr(p.node), SLOT_FREE)?;
        }
        Ok(())
    }

    /// The combine: drain pending slots (plus the combiner's own unpub-
    /// lished op), append the batch with one tail CAS, mark the drained
    /// slots consumed, and fold the batch into the authoritative state.
    /// `f` runs on the state right after the combiner's own op applies.
    /// Returns `(own op's index, f's output, ops combined)`.
    fn combine_locked<R>(
        &self,
        ctx: &NodeCtx,
        own: Option<(usize, &[u8])>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<(Option<u64>, Option<R>, u64), SimError> {
        let (pend, bits) = self.scan_pending_masked(ctx, own.map(|(me, _)| me))?;
        let mut payloads: Vec<&[u8]> = Vec::with_capacity(pend.len() + 1);
        payloads.extend(own.map(|(_, framed)| framed));
        payloads.extend(pend.iter().flat_map(|p| p.ops.iter().map(Vec::as_slice)));
        if payloads.is_empty() {
            return Ok((None, None, 0));
        }
        let combined = payloads.len() as u64;
        let mut inner = self.inner.lock();
        let first = match self.log.append_batch(ctx, &payloads) {
            Ok(first) => first,
            Err(e) => {
                self.abort_slots(ctx, &pend)?;
                self.clear_mask_bits(ctx, bits)?;
                return Err(e);
            }
        };
        // Mark the slots before folding: once the batch is committed, no
        // error on the fold may leave a committed publication `PENDING`
        // (recovery searches the log for those only on a takeover). A
        // publication's ops land consecutively; the consumed word carries
        // the first index. The slot lines are resident from the scan, so
        // these are cached writes.
        let mut idx = first + u64::from(own.is_some());
        for p in &pend {
            ctx.write_u64(self.slot_addr(p.node), consumed_word(idx))?;
            idx += p.ops.len() as u64;
        }
        // One flush makes every mark visible (`pend` is in node order).
        // It also covers the unflagged slots in between: those were never
        // written here, so they are clean and the flush only drops them.
        if let (Some(lo), Some(hi)) = (pend.first(), pend.last()) {
            ctx.flush(
                self.slot_addr(lo.node),
                (hi.node - lo.node) * self.slot_stride + 8,
            );
        }
        self.clear_mask_bits(ctx, bits)?;
        // Fold committed entries older than the batch before the batch
        // itself, so log order and apply order agree.
        self.drain_to(ctx, &mut inner, first)?;
        let mut idx = first;
        let (mut own_idx, mut out) = (None, None);
        if let Some((me, framed)) = own {
            if let Some((_, op)) = unframe(framed) {
                inner.state.apply(op);
                ctx.charge(ctx.latency().local_write_ns);
            }
            inner.applied = idx + 1;
            inner.synced[me] = inner.applied;
            own_idx = Some(idx);
            out = Some(f(&inner.state));
            idx += 1;
        }
        for framed in pend.iter().flat_map(|p| &p.ops) {
            if let Some((_, op)) = unframe(framed) {
                inner.state.apply(op);
                ctx.charge(ctx.latency().local_write_ns);
            }
            inner.applied = idx + 1;
            idx += 1;
        }
        Ok((own_idx, out, combined))
    }

    /// The node-replicated write path (dispatched from `update_map`).
    pub(super) fn nr_update_map<R>(
        &self,
        ctx: &NodeCtx,
        op: &[u8],
        f: impl FnOnce(&T) -> R,
    ) -> Result<(u64, R), SimError> {
        let me = self.me(ctx);
        let framed = frame_op(me as u32, self.next_seq(me), op);
        if framed.len() > self.slot_payload_cap {
            return Err(SimError::Protocol(format!(
                "op of {} bytes exceeds slot payload capacity {}",
                op.len(),
                self.slot_payload_cap - super::FRAME_BYTES
            )));
        }
        let _publisher = self.slot_locks[me].lock();
        // Combiner-first: the winner's own op rides the batch straight
        // from memory — no publication fabric traffic at all.
        if self.combiner.compare_exchange(ctx, 0, me as u64 + 1)? == 0 {
            self.note_combiner_claim(ctx);
            let res = self.combine_locked(ctx, Some((me, &framed)), f);
            let released = self.combiner.store(ctx, 0);
            let (own_idx, out, _) = res?;
            released?;
            let idx = own_idx.expect("combiner batches its own op");
            let out = out.expect("post-op closure ran");
            let mut inner = self.inner.lock();
            self.post_op(ctx, &mut inner, me, false, false)?;
            return Ok((idx, out));
        }
        // Waiter: publish, then alternate between polling the slot and
        // re-trying the claim (the active combiner may miss us).
        self.publish_slot(ctx, me, &pack_ops(std::slice::from_ref(&framed)))?;
        // NUMA tie-break: a waiter defers its first `distance` re-claims,
        // so among contenders the node closest to the log's home wins the
        // open combiner word and keeps the batch's tail CAS and entry
        // writes near-home. Distance is 0 under the uniform home policy —
        // no deference, byte-identical claims.
        let defer = u64::from(self.log_home_distance(ctx));
        let mut spins = 0u64;
        let idx = loop {
            let st = ctx.load_uncached_u64(self.slot_addr(me))?;
            if st & 0xff == SLOT_CONSUMED_TAG {
                break st >> 8;
            }
            if st == SLOT_FREE {
                return Err(SimError::Protocol(
                    "publication aborted by combiner (log full)".into(),
                ));
            }
            if spins >= defer && self.combiner.compare_exchange(ctx, 0, me as u64 + 1)? == 0 {
                self.note_combiner_claim(ctx);
                let res = self.combine_locked(ctx, None, |_| ());
                let released = self.combiner.store(ctx, 0);
                res?;
                released?;
                continue; // the next poll sees CONSUMED
            }
            spins += 1;
            if spins > 64 + self.log.capacity() {
                return Err(SimError::Protocol(
                    "combiner stalled; publication fate unknown".into(),
                ));
            }
            ctx.charge(ctx.latency().local_read_ns);
            // The stall bound above assumes a dead combiner; a live one
            // merely descheduled by the host OS must get CPU before we
            // burn through it. No simulated cost — host scheduling only.
            std::thread::yield_now();
        };
        let out = self.nr_post_state(ctx, me, idx, f)?;
        let mut inner = self.inner.lock();
        self.post_op(ctx, &mut inner, me, false, false)?;
        Ok((idx, out))
    }

    /// Run `f` on the state exactly after log index `idx` applied —
    /// from this node's replica when it has not yet passed `idx`,
    /// otherwise from the drained authoritative state (post-batch).
    fn nr_post_state<R>(
        &self,
        ctx: &NodeCtx,
        me: usize,
        idx: u64,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, SimError> {
        let mut guard = self.replicas[me].lock();
        if let Some(rep) = guard.as_mut() {
            if rep.applied <= idx {
                self.replica_catch_up(ctx, rep, idx + 1)?;
                return Ok(f(&rep.state));
            }
        }
        drop(guard);
        let mut inner = self.inner.lock();
        let tail = self.log.tail(ctx)?;
        self.drain_to(ctx, &mut inner, tail)?;
        Ok(f(&inner.state))
    }

    /// Linearizable read on the node-replicated backend: catch the
    /// authoritative state up to the tail, one burst read per log run.
    pub(super) fn nr_read_pre_op(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
    ) -> Result<(), SimError> {
        let tail = self.log.tail(ctx)?;
        self.drain_to(ctx, inner, tail)
    }

    /// Materialize `me`'s replica if absent (a clone of the
    /// authoritative state, charged as one snapshot fetch of the
    /// footprint). Returns the guard.
    fn replica_or_materialize(
        &self,
        ctx: &NodeCtx,
        me: usize,
    ) -> std::sync::MutexGuard<'_, Option<Replica<T>>> {
        let mut guard = self.replicas[me].lock();
        if guard.is_none() {
            let inner = self.inner.lock();
            let lat = ctx.latency();
            ctx.charge(
                lines(self.footprint_bytes) * (lat.invalidate_line_ns + lat.local_write_ns)
                    + lat.global_read_ns,
            );
            *guard = Some(Replica {
                state: inner.state.clone(),
                applied: inner.applied,
            });
        }
        guard
    }

    /// Advance a replica toward `target` by replaying committed entries,
    /// one burst read per contiguous log run. Re-snapshots from the
    /// authoritative state when GC collected entries the replica still
    /// needed.
    ///
    /// An uncommitted slot below the tail is either a sealed hole (its
    /// appender died) or an entry still in flight: `append_batch` moves
    /// the tail with its CAS *before* the flush that commits the batch.
    /// The authoritative `applied` watermark, sampled once up front,
    /// tells them apart — the combiner folds its batch under the host
    /// mutex, so everything below the watermark is settled. A hole below
    /// it is skipped; an uncommitted slot at or above it stops the
    /// catch-up there, to be retried by the next call.
    fn replica_catch_up(
        &self,
        ctx: &NodeCtx,
        rep: &mut Replica<T>,
        target: u64,
    ) -> Result<(), SimError> {
        if rep.applied >= target {
            return Ok(());
        }
        let head = self.log.head(ctx)?;
        let settled = {
            let inner = self.inner.lock();
            if rep.applied < head {
                let lat = ctx.latency();
                ctx.charge(
                    lines(self.footprint_bytes) * (lat.invalidate_line_ns + lat.local_write_ns)
                        + lat.global_read_ns,
                );
                rep.state = inner.state.clone();
                rep.applied = inner.applied;
            }
            inner.applied
        };
        let from = rep.applied;
        self.log.read_range(ctx, from, target, |idx, entry| {
            match entry {
                Some(payload) => {
                    if let Some((_, op)) = unframe(payload) {
                        rep.state.apply(op);
                        ctx.charge(ctx.latency().local_write_ns);
                    }
                }
                None if idx < settled => {}
                None => return ControlFlow::Break(()),
            }
            rep.applied = idx + 1;
            ControlFlow::Continue(())
        })
    }

    /// Read from this node's replica with **zero fabric operations** on
    /// the hit path (replica already materialized). The replica is a
    /// consistent — possibly stale — prefix of the log; use
    /// [`SyncCell::sync_replica`] first (or [`SyncCell::read`]) when the
    /// read is linearization-sensitive. Falls back to [`SyncCell::read`]
    /// on every other backend.
    ///
    /// # Errors
    ///
    /// Propagates memory errors (first-use materialization only).
    pub fn read_local<R>(&self, ctx: &NodeCtx, f: impl FnOnce(&T) -> R) -> Result<R, SimError> {
        if self.inner.lock().policy != super::SyncPolicy::NodeReplicated {
            return self.read(ctx, f);
        }
        let me = self.me(ctx);
        let guard = self.replica_or_materialize(ctx, me);
        let rep = guard.as_ref().expect("replica materialized");
        ctx.charge(ctx.latency().local_read_ns);
        let out = f(&rep.state);
        drop(guard);
        let mut inner = self.inner.lock();
        self.post_op(ctx, &mut inner, me, true, false)?;
        Ok(out)
    }

    /// Explicitly catch this node's replica up to the current log tail.
    /// Returns the replica's applied watermark.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn sync_replica(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        let me = self.me(ctx);
        let mut guard = self.replica_or_materialize(ctx, me);
        let rep = guard.as_mut().expect("replica materialized");
        let tail = self.log.tail(ctx)?;
        self.replica_catch_up(ctx, rep, tail)?;
        Ok(rep.applied)
    }

    /// Recovery after `crashed` died: claim the combiner word, resolve
    /// the pending publications, release, fold the new tail. Caller holds
    /// the host mutex and has drained the committed tail. Returns whether
    /// a dead combiner was actually replaced.
    ///
    /// The claim is `CAS(0 → me)` first; its return value names the
    /// holder, so only a dead holder costs a second `CAS(dead → me)`. A
    /// live holder elsewhere owns the slots and recovery leaves them.
    pub(super) fn nr_recover(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        crashed: NodeId,
    ) -> Result<bool, SimError> {
        let mine = self.me(ctx) as u64 + 1;
        let dead = crashed.0 as u64 + 1;
        let holder = self.combiner.compare_exchange(ctx, 0, mine)?;
        let takeover = holder == dead && self.combiner.compare_exchange(ctx, dead, mine)? == dead;
        if takeover {
            // cold-path: re-election only fires after a combiner crash.
            ctx.stats().registry().add("sync", "reelections", 1);
        } else if holder != 0 {
            return Ok(false);
        }
        self.note_combiner_claim(ctx);
        let res = self.nr_recover_drain(ctx, crashed.0, takeover);
        let released = self.combiner.store(ctx, 0);
        let tail = res?;
        released?;
        if let Some(tail) = tail {
            self.drain_to(ctx, inner, tail)?;
        }
        Ok(takeover)
    }

    /// Resolve the pending publications: the slots the summary mask
    /// flags, plus the dead node's own slot when the mask scan did not
    /// resolve it (a publisher that died between its flush and its mask
    /// `fetch_add` never raises its bit; a live one still will, and a
    /// later combine takes its slot). Only the bits the mask scan
    /// resolved are cleared.
    ///
    /// On a `takeover` the dead combiner may have appended its batch
    /// before dying, so one range pass over the committed window finds
    /// the publications that already landed; only the unseen ones are
    /// re-appended. From a free role nothing pending can be committed:
    /// a combine marks its slots before anything after its append can
    /// fail, so the search is skipped. Returns the new tail when
    /// something was appended.
    fn nr_recover_drain(
        &self,
        ctx: &NodeCtx,
        dead: usize,
        takeover: bool,
    ) -> Result<Option<u64>, SimError> {
        let (mut pend, bits) = self.scan_pending_masked(ctx, None)?;
        if bits & (1 << dead) == 0 {
            if let Some(p) = self.read_slot(ctx, dead)? {
                let at = pend.partition_point(|q| q.node < dead);
                pend.insert(at, p);
            }
        }
        if pend.is_empty() {
            return Ok(None);
        }
        // Dedup on each publication's *first* op: a slot's ops were
        // appended together (the batch append is all-or-nothing and keeps
        // them adjacent), so either every op committed or none did.
        // `(key, committed at, publication)`.
        let mut keyed: Vec<(u64, Option<u64>, Pending)> = Vec::with_capacity(pend.len());
        for p in pend {
            match p.ops.first().and_then(|framed| unframe(framed)) {
                Some((key, _)) => keyed.push((key, None, p)),
                // Malformed publication: never acknowledged, drop it.
                None => ctx.store_uncached_u64(self.slot_addr(p.node), SLOT_FREE)?,
            }
        }
        // One pass over `[head, tail)` records the first index of each
        // key and stops once every key is found. The window is settled:
        // the caller holds the host mutex every append runs under.
        let mut unseen = keyed.len();
        if takeover && unseen > 0 {
            let head = self.log.head(ctx)?;
            let tail = self.log.tail(ctx)?;
            self.log.read_range(ctx, head, tail, |idx, entry| {
                if let Some((k, _)) = entry.and_then(unframe) {
                    for (key, at, _) in keyed.iter_mut() {
                        if at.is_none() && *key == k {
                            *at = Some(idx);
                            unseen -= 1;
                        }
                    }
                }
                if unseen == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })?;
        }
        let mut fresh: Vec<Pending> = Vec::new();
        for (_, at, p) in keyed {
            match at {
                Some(idx) => self.mark_consumed(ctx, p.node, idx)?,
                None => fresh.push(p),
            }
        }
        let mut tail = None;
        if !fresh.is_empty() {
            let payloads: Vec<&[u8]> = fresh
                .iter()
                .flat_map(|p| p.ops.iter().map(Vec::as_slice))
                .collect();
            match self.log.append_batch(ctx, &payloads) {
                Ok(first) => {
                    let mut idx = first;
                    for p in &fresh {
                        self.mark_consumed(ctx, p.node, idx)?;
                        idx += p.ops.len() as u64;
                    }
                    tail = Some(idx);
                }
                Err(e) => {
                    self.abort_slots(ctx, &fresh)?;
                    self.clear_mask_bits(ctx, bits)?;
                    return Err(e);
                }
            }
        }
        self.clear_mask_bits(ctx, bits)?;
        Ok(tail)
    }

    // ----- split-protocol hooks (flac-faultstorm / flac-bench sync) -----

    /// Publish `op` into this node's slot and return, without waiting
    /// for a combiner. Drives the protocol one step at a time from the
    /// fault-storm campaigns and the scaling bench. Returns the
    /// publication's dedup key.
    ///
    /// # Errors
    ///
    /// Propagates memory errors; oversize ops are a protocol error.
    pub fn nr_publish(&self, ctx: &NodeCtx, op: &[u8]) -> Result<u64, SimError> {
        Ok(self.nr_publish_batch(ctx, &[op])?[0])
    }

    /// Publish a *batch* of ops as one publication: one flush and one
    /// fabric atomic carry the whole list, and the combiner consumes it
    /// with one slot write — the publication-side half of flat
    /// combining's amortization. The ops land at consecutive log
    /// indices starting at the index [`SyncCell::nr_poll`] reports.
    /// Returns the per-op dedup keys.
    ///
    /// # Errors
    ///
    /// Protocol errors for an empty batch, an oversize op, or a batch
    /// exceeding the slot; memory errors are propagated.
    pub fn nr_publish_batch(&self, ctx: &NodeCtx, ops: &[&[u8]]) -> Result<Vec<u64>, SimError> {
        let me = self.me(ctx);
        let _publisher = self.slot_locks[me].lock();
        let (keys, packed) = self.pack_publication(me, ops)?;
        self.publish_slot(ctx, me, &packed)?;
        Ok(keys)
    }

    /// Frame `ops` as `me`'s next publication: the per-op dedup keys and
    /// the packed slot payload.
    fn pack_publication(&self, me: usize, ops: &[&[u8]]) -> Result<(Vec<u64>, Vec<u8>), SimError> {
        if ops.is_empty() {
            return Err(SimError::Protocol("empty publication batch".into()));
        }
        let mut framed = Vec::with_capacity(ops.len());
        let mut keys = Vec::with_capacity(ops.len());
        for op in ops {
            let f = frame_op(me as u32, self.next_seq(me), op);
            if f.len() > self.slot_payload_cap {
                return Err(SimError::Protocol(format!(
                    "op of {} bytes exceeds slot payload capacity {}",
                    op.len(),
                    self.slot_payload_cap - super::FRAME_BYTES
                )));
            }
            keys.push(unframe(&f).expect("framed header present").0);
            framed.push(f);
        }
        let packed = pack_ops(&framed);
        if packed.len() > self.slot_stride - 16 {
            return Err(SimError::Protocol(format!(
                "publication batch of {} bytes exceeds slot capacity {}",
                packed.len(),
                self.slot_stride - 16
            )));
        }
        Ok((keys, packed))
    }

    /// Claim the combiner role, run one full combine over the published
    /// slots, release. Returns the number of ops combined.
    ///
    /// # Errors
    ///
    /// `Protocol` if another node holds the combiner role; log and
    /// memory errors are propagated.
    pub fn nr_combine(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        let me = self.me(ctx);
        // As on the update path, the combiner holds its node's publisher
        // lock: no same-node publication can sit dirty in the cache the
        // slot-span invalidate and flush sweep.
        let _publisher = self.slot_locks[me].lock();
        if self.combiner.compare_exchange(ctx, 0, me as u64 + 1)? != 0 {
            return Err(SimError::Protocol("combiner role already claimed".into()));
        }
        self.note_combiner_claim(ctx);
        let res = self.combine_locked(ctx, None, |_| ());
        let released = self.combiner.store(ctx, 0);
        let (_, _, combined) = res?;
        released?;
        let mut inner = self.inner.lock();
        ctx.stats()
            .registry()
            .add("sync", inner.policy.ops_counter(), combined);
        let _ = &mut inner;
        Ok(combined)
    }

    /// Poll this node's publication slot: `Some(first log index)` once
    /// a combiner consumed it (a batch publication's ops occupy
    /// consecutive indices from there), `None` while still pending.
    ///
    /// # Errors
    ///
    /// `Protocol` when the publication was aborted (log full); memory
    /// errors are propagated.
    pub fn nr_poll(&self, ctx: &NodeCtx) -> Result<Option<u64>, SimError> {
        let st = ctx.load_uncached_u64(self.slot_addr(self.me(ctx)))?;
        if st & 0xff == SLOT_CONSUMED_TAG {
            return Ok(Some(st >> 8));
        }
        if st == SLOT_FREE {
            return Err(SimError::Protocol("publication aborted".into()));
        }
        Ok(None)
    }

    /// Crash hook: the publisher writes and flushes `op` into its slot,
    /// then dies **before raising its summary-mask bit**. The slot is
    /// `PENDING` but no mask scan will ever flag it; only recovery for
    /// this node reads it. Returns the publication's dedup key.
    ///
    /// # Errors
    ///
    /// As [`SyncCell::nr_publish`].
    pub fn nr_publish_crash_before_mask(&self, ctx: &NodeCtx, op: &[u8]) -> Result<u64, SimError> {
        let me = self.me(ctx);
        let _publisher = self.slot_locks[me].lock();
        let (keys, packed) = self.pack_publication(me, &[op])?;
        self.write_slot(ctx, me, &packed)?;
        // Crash: the mask `fetch_add` never runs.
        Ok(keys[0])
    }

    /// Crash hook: the combiner claims the role and scans the slots,
    /// then dies **before the tail CAS**. Nothing is committed; every
    /// publication stays `PENDING` and the combiner word stays claimed
    /// by this node. Returns the number of publications stranded.
    ///
    /// # Errors
    ///
    /// `Protocol` if the combiner role is already claimed.
    pub fn nr_combine_crash_before_append(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        let me = self.me(ctx);
        if self.combiner.compare_exchange(ctx, 0, me as u64 + 1)? != 0 {
            return Err(SimError::Protocol("combiner role already claimed".into()));
        }
        let (pend, _) = self.scan_pending_masked(ctx, None)?;
        Ok(pend.iter().map(|p| p.ops.len() as u64).sum())
    }

    /// Crash hook: the combiner appends the batch (tail CAS + committed
    /// entries), then dies **before consuming any slot or releasing the
    /// role**. Publications stay `PENDING` while their ops are already
    /// committed — the double-apply trap recovery's dedup must defuse.
    /// Returns the number of ops committed.
    ///
    /// # Errors
    ///
    /// `Protocol` if the combiner role is already claimed; log and
    /// memory errors are propagated.
    pub fn nr_combine_crash_after_append(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        let me = self.me(ctx);
        if self.combiner.compare_exchange(ctx, 0, me as u64 + 1)? != 0 {
            return Err(SimError::Protocol("combiner role already claimed".into()));
        }
        let (pend, _) = self.scan_pending_masked(ctx, None)?;
        if pend.is_empty() {
            return Ok(0);
        }
        let payloads: Vec<&[u8]> = pend
            .iter()
            .flat_map(|p| p.ops.iter().map(Vec::as_slice))
            .collect();
        self.log.append_batch(ctx, &payloads)?;
        // Crash: no slot consumed, no authoritative fold, role not
        // released.
        Ok(payloads.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
    use std::sync::Arc;

    use rack_sim::{Rack, RackConfig};

    #[derive(Debug, Default, Clone, PartialEq)]
    struct Tally {
        per_node: Vec<(u32, u32)>,
    }

    impl SyncState for Tally {
        fn apply(&mut self, op: &[u8]) {
            if op.len() < 8 {
                return;
            }
            let node = u32::from_le_bytes(op[0..4].try_into().unwrap());
            let step = u32::from_le_bytes(op[4..8].try_into().unwrap());
            self.per_node.push((node, step));
        }
    }

    fn op(node: u32, step: u32) -> Vec<u8> {
        let mut v = node.to_le_bytes().to_vec();
        v.extend_from_slice(&step.to_le_bytes());
        v
    }

    fn nr_cell(rack: &Rack) -> Arc<SyncCell<Tally>> {
        SyncCell::alloc(
            rack.global(),
            "test_nr",
            SyncCellConfig::new(rack.node_count(), SyncPolicy::NodeReplicated).with_log(256, 48),
            Tally::default(),
        )
        .unwrap()
    }

    #[test]
    fn batched_combine_commits_all_published_ops_in_order() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        // Three nodes publish, one combine commits the lot.
        for n in 1..4 {
            c.nr_publish(&rack.node(n), &op(n as u32, 0)).unwrap();
        }
        let atomics_before = rack.node(0).stats().snapshot().global_atomics;
        assert_eq!(c.nr_combine(&rack.node(0)).unwrap(), 3);
        // Claim CAS + one tail CAS for the whole batch + mask clear.
        let atomics = rack.node(0).stats().snapshot().global_atomics - atomics_before;
        assert_eq!(atomics, 3, "claim + tail CAS + mask clear, nothing per-op");
        for n in 1..4u64 {
            assert_eq!(c.nr_poll(&rack.node(n as usize)).unwrap(), Some(n - 1));
        }
        assert_eq!(c.committed(&rack.node(0)).unwrap(), 3);
        let (rebuilt, replayed) = c.replay(&rack.node(0), Tally::default()).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(c.peek(|t| t.clone()), rebuilt);
    }

    #[test]
    fn batch_publication_lands_consecutively_from_polled_index() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        // One publication carries a node's whole pending list.
        let n1 = rack.node(1);
        let before = n1.stats().snapshot().global_atomics;
        c.nr_publish_batch(&n1, &[&op(1, 10), &op(1, 11)]).unwrap();
        assert_eq!(
            n1.stats().snapshot().global_atomics - before,
            1,
            "one fabric atomic publishes the whole batch"
        );
        c.nr_publish(&rack.node(2), &op(2, 20)).unwrap();
        assert_eq!(c.nr_combine(&rack.node(0)).unwrap(), 3);
        let first = c.nr_poll(&n1).unwrap().unwrap();
        assert_eq!(first, 0, "node 1's ops land first, consecutively");
        assert_eq!(c.nr_poll(&rack.node(2)).unwrap(), Some(2));
        assert_eq!(
            c.peek(|t| t.per_node.clone()),
            vec![(1, 10), (1, 11), (2, 20)],
            "publication order preserved inside the batch"
        );
        let (rebuilt, replayed) = c.replay(&rack.node(0), Tally::default()).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(c.peek(|t| t.clone()), rebuilt);
    }

    #[test]
    fn update_path_self_combines_and_sees_post_op_state() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        for i in 0..6u32 {
            let node = (i % 3) as usize;
            let (idx, len) = c
                .update_map(&rack.node(node), &op(node as u32, i), |t| t.per_node.len())
                .unwrap();
            assert_eq!(idx, u64::from(i));
            assert_eq!(len, (i + 1) as usize, "post-op state visible");
        }
        let snap = c.read(&rack.node(3), |t| t.per_node.clone()).unwrap();
        assert_eq!(snap.len(), 6);
    }

    #[test]
    fn read_local_hits_replica_with_zero_fabric_ops() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        for i in 0..8u32 {
            c.update(&rack.node((i % 2) as usize), &op(i % 2, i))
                .unwrap();
        }
        let n3 = rack.node(3);
        assert_eq!(c.sync_replica(&n3).unwrap(), 8);
        let before = n3.stats().snapshot();
        for _ in 0..32 {
            assert_eq!(c.read_local(&n3, |t| t.per_node.len()).unwrap(), 8);
        }
        let after = n3.stats().snapshot();
        assert_eq!(after.global_reads, before.global_reads, "no fabric reads");
        assert_eq!(
            after.global_writes, before.global_writes,
            "no fabric writes"
        );
        assert_eq!(after.global_atomics, before.global_atomics, "no atomics");
        assert_eq!(after.messages_sent, before.messages_sent, "no messages");
        // The replica is stale until synced, then current again.
        c.update(&rack.node(0), &op(0, 99)).unwrap();
        assert_eq!(c.read_local(&n3, |t| t.per_node.len()).unwrap(), 8);
        c.sync_replica(&n3).unwrap();
        assert_eq!(c.read_local(&n3, |t| t.per_node.len()).unwrap(), 9);
    }

    #[test]
    fn combiner_crash_before_append_loses_nothing() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        c.update(&rack.node(0), &op(0, 0)).unwrap();
        c.nr_publish(&rack.node(1), &op(1, 1)).unwrap();
        c.nr_publish(&rack.node(2), &op(2, 2)).unwrap();
        // Node 3 claims, scans, dies before the tail CAS.
        assert_eq!(c.nr_combine_crash_before_append(&rack.node(3)).unwrap(), 2);
        rack.faults().crash_node(rack_sim::NodeId(3), 0);
        assert_eq!(c.committed(&rack.node(0)).unwrap(), 1, "nothing committed");
        // Recovery re-elects and commits the stranded publications.
        assert!(c.on_node_crash(&rack.node(0), rack_sim::NodeId(3)).unwrap());
        assert_eq!(c.committed(&rack.node(0)).unwrap(), 3);
        assert_eq!(c.nr_poll(&rack.node(1)).unwrap(), Some(1));
        assert_eq!(c.nr_poll(&rack.node(2)).unwrap(), Some(2));
        let (rebuilt, replayed) = c.replay(&rack.node(0), Tally::default()).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(c.peek(|t| t.clone()), rebuilt);
    }

    #[test]
    fn combiner_crash_after_append_never_double_applies() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        // A batch publication and a single one, so recovery dedup also
        // covers multi-op slots.
        c.nr_publish_batch(&rack.node(1), &[&op(1, 1), &op(1, 2)])
            .unwrap();
        c.nr_publish(&rack.node(2), &op(2, 3)).unwrap();
        // Node 3 appends the batch, dies before consuming the slots.
        assert_eq!(c.nr_combine_crash_after_append(&rack.node(3)).unwrap(), 3);
        rack.faults().crash_node(rack_sim::NodeId(3), 0);
        assert_eq!(c.committed(&rack.node(0)).unwrap(), 3, "batch landed");
        // Recovery dedups against the committed window: no re-append.
        assert!(c.on_node_crash(&rack.node(0), rack_sim::NodeId(3)).unwrap());
        assert_eq!(
            c.committed(&rack.node(0)).unwrap(),
            3,
            "no duplicate entries"
        );
        assert_eq!(c.nr_poll(&rack.node(1)).unwrap(), Some(0));
        assert_eq!(c.nr_poll(&rack.node(2)).unwrap(), Some(2));
        let (rebuilt, replayed) = c.replay(&rack.node(0), Tally::default()).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(c.peek(|t| t.clone()), rebuilt);
        assert_eq!(rebuilt.per_node, vec![(1, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn dead_publisher_slot_drains_on_recovery() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        c.nr_publish(&rack.node(2), &op(2, 7)).unwrap();
        rack.faults().crash_node(rack_sim::NodeId(2), 0);
        // No combiner was involved; recovery still commits the orphan.
        c.on_node_crash(&rack.node(0), rack_sim::NodeId(2)).unwrap();
        assert_eq!(c.committed(&rack.node(0)).unwrap(), 1);
        assert_eq!(c.peek(|t| t.per_node.clone()), vec![(2, 7)]);
    }

    #[test]
    fn publisher_dead_before_its_mask_bit_drains_once_and_clears_the_mask() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        let n0 = rack.node(0);
        c.nr_publish(&rack.node(1), &op(1, 1)).unwrap();
        // Node 2's slot is PENDING, but its summary bit never rises.
        c.nr_publish_crash_before_mask(&rack.node(2), &op(2, 2))
            .unwrap();
        rack.faults().crash_node(rack_sim::NodeId(2), 0);
        assert_eq!(c.summary_mask().load(&n0).unwrap(), 0b010);
        assert!(!c.on_node_crash(&n0, rack_sim::NodeId(2)).unwrap());
        assert_eq!(
            c.summary_mask().load(&n0).unwrap(),
            0,
            "recovery clears only the bits it resolved"
        );
        assert_eq!(c.nr_poll(&rack.node(1)).unwrap(), Some(0));
        assert_eq!(c.peek(|t| t.per_node.clone()), vec![(1, 1), (2, 2)]);
        // Nothing is left for a later combine to apply a second time.
        assert_eq!(c.nr_combine(&rack.node(3)).unwrap(), 0);
        assert_eq!(c.committed(&n0).unwrap(), 2);
        let (rebuilt, replayed) = c.replay(&n0, Tally::default()).unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(c.peek(|t| t.clone()), rebuilt);
    }

    #[test]
    fn a_fold_that_fails_after_the_append_leaves_no_publication_pending() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        let (n0, n3) = (rack.node(0), rack.node(3));
        // Four committed entries no fold has applied yet, filling log
        // lines 0..3 exactly, so the batch below starts on a line of its
        // own.
        let early: Vec<Vec<u8>> = (0..4)
            .map(|i| super::super::frame_op(3, 1000 + i, &op(3, 1000 + i)))
            .collect();
        c.op_log().append_batch(&n0, &early).unwrap();
        c.nr_publish(&rack.node(1), &op(1, 1)).unwrap();
        c.nr_publish(&rack.node(2), &op(2, 2)).unwrap();
        // Poison entry 0's commit flag: the combine's append lands, then
        // its fold of the older entries fails.
        let flag = c.op_log().base();
        let word = rack.global().load_u64(flag).unwrap();
        rack.global().poison(flag, 8);
        assert!(c.nr_combine(&n3).is_err(), "the fold hits the poison");
        assert_eq!(c.committed(&n0).unwrap(), 6, "the batch landed");
        assert_eq!(c.fold_position(), (0, 0), "nothing folded");
        // The marks went out before the fold: nothing is left PENDING.
        assert_eq!(c.nr_poll(&rack.node(1)).unwrap(), Some(4));
        assert_eq!(c.nr_poll(&rack.node(2)).unwrap(), Some(5));
        assert_eq!(c.summary_mask().load(&n0).unwrap(), 0);
        rack.global().scrub(flag, 8);
        rack.global().store_u64(flag, word).unwrap();
        // Recovery from a free role skips the log search; it must not
        // re-append the committed publications.
        rack.faults().crash_node(rack_sim::NodeId(3), 0);
        assert!(!c.on_node_crash(&n0, rack_sim::NodeId(3)).unwrap());
        assert_eq!(c.committed(&n0).unwrap(), 6, "no duplicate entries");
        c.nr_publish(&rack.node(1), &op(1, 3)).unwrap();
        assert_eq!(c.nr_combine(&n0).unwrap(), 1);
        let mut expected: Vec<(u32, u32)> = (1000..1004).map(|s| (3, s)).collect();
        expected.extend([(1, 1), (2, 2), (1, 3)]);
        assert_eq!(c.peek(|t| t.per_node.clone()), expected);
        let (rebuilt, replayed) = c.replay(&n0, Tally::default()).unwrap();
        assert_eq!(replayed, 7);
        assert_eq!(c.peek(|t| t.clone()), rebuilt);
    }

    /// Total `sync/nr_combiner_remote_claims` recorded on `node`.
    fn remote_claims(rack: &Rack, node: usize) -> u64 {
        rack.node(node)
            .stats()
            .snapshot()
            .subsystems
            .iter()
            .find(|c| c.subsystem == "sync" && c.name == "nr_combiner_remote_claims")
            .map_or(0, |c| c.value)
    }

    #[test]
    fn remote_combiner_claims_counted_under_interleaved_home() {
        // A two-rack pod with an interleaved home: the log's entry
        // region lives on one leaf, so some nodes are remote from it.
        let rack = Rack::new(RackConfig::pod(2, 2));
        let c = nr_cell(&rack);
        let n0 = rack.node(0);
        let topo = n0.interconnect().topology();
        let home = topo.home_of(c.log.base().0).expect("interleaved home");
        let far = (0..rack.node_count())
            .max_by_key(|&n| topo.lca_level(rack_sim::NodeId(n), home))
            .unwrap();
        assert!(topo.lca_level(rack_sim::NodeId(far), home) > 0);

        c.update(&rack.node(far), &op(far as u32, 1)).unwrap();
        assert_eq!(remote_claims(&rack, far), 1, "off-home combine counted");
        c.update(&rack.node(home.0), &op(home.0 as u32, 2)).unwrap();
        assert_eq!(remote_claims(&rack, home.0), 0, "home-leaf combine is not");
    }

    #[test]
    fn flat_rack_never_counts_remote_claims() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        for n in 0..4 {
            c.update(&rack.node(n), &op(n as u32, 1)).unwrap();
        }
        for n in 0..4 {
            assert_eq!(remote_claims(&rack, n), 0, "uniform home: no distance");
        }
    }

    #[test]
    fn remote_waiters_defer_reclaims_toward_the_log_home() {
        let rack = Rack::new(RackConfig::pod(2, 2));
        let c = nr_cell(&rack);
        let n0 = rack.node(0);
        let topo = n0.interconnect().topology();
        let home = topo.home_of(c.log.base().0).expect("interleaved home");
        let far = (0..rack.node_count())
            .max_by_key(|&n| topo.lca_level(rack_sim::NodeId(n), home))
            .unwrap();
        let dist = u64::from(topo.lca_level(rack_sim::NodeId(far), home));
        assert!(dist > 0 && far != home.0);
        let other = (0..rack.node_count())
            .find(|&n| n != far && n != home.0)
            .unwrap();

        // Hold the combiner word hostage, then drive a near and a far
        // waiter to the stall error: the far one must have skipped its
        // first `dist` re-claim CASes in deference to closer peers.
        c.nr_combine_crash_before_append(&rack.node(other)).unwrap();
        let atomics_spent = |n: usize| {
            let node = rack.node(n);
            let before = node.stats().snapshot().global_atomics;
            assert!(c.update(&node, &op(n as u32, 9)).is_err(), "stalled");
            node.stats().snapshot().global_atomics - before
        };
        let near_spent = atomics_spent(home.0);
        let far_spent = atomics_spent(far);
        assert_eq!(near_spent - far_spent, dist, "deferred claims = distance");
    }

    #[test]
    fn log_full_aborts_waiters_cleanly() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c: Arc<SyncCell<Tally>> = SyncCell::alloc(
            rack.global(),
            "test_nr_full",
            SyncCellConfig::new(4, SyncPolicy::NodeReplicated).with_log(2, 48),
            Tally::default(),
        )
        .unwrap();
        c.update(&rack.node(0), &op(0, 0)).unwrap();
        c.update(&rack.node(0), &op(0, 1)).unwrap();
        c.nr_publish(&rack.node(1), &op(1, 2)).unwrap();
        assert!(c.nr_combine(&rack.node(0)).is_err(), "ring full");
        assert!(
            matches!(
                c.nr_poll(&rack.node(1)),
                Err(rack_sim::SimError::Protocol(_))
            ),
            "waiter sees the abort"
        );
        assert_eq!(c.peek(|t| t.per_node.len()), 2, "state untouched");
    }

    #[test]
    fn unpack_ops_returns_only_whole_ops_for_every_prefix() {
        use super::super::frame_op;
        use super::{pack_ops, unpack_ops, PACK_BYTES};
        let ops = vec![
            frame_op(0, 0, b"a"),
            frame_op(1, 1, b"bcdef"),
            frame_op(2, 2, b""),
        ];
        let packed = pack_ops(&ops);
        assert_eq!(unpack_ops(&packed), Some(ops.clone()));
        // Offsets where one packed op ends and the next begins.
        let ends: Vec<usize> = ops
            .iter()
            .scan(0, |at, op| {
                *at += PACK_BYTES + op.len();
                Some(*at)
            })
            .collect();
        for cut in 0..packed.len() {
            match unpack_ops(&packed[..cut]) {
                None => assert!(!ends.contains(&cut), "cut {cut}: whole ops dropped"),
                Some(got) => {
                    assert!(ends.contains(&cut), "cut {cut}: partial op returned");
                    assert_eq!(got[..], ops[..got.len()], "cut {cut}");
                }
            }
        }
        // A hostile length prefix claims more bytes than the slot holds.
        let mut hostile = u32::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(b"short");
        assert_eq!(unpack_ops(&hostile), None);
    }
}
