//! The `NodeReplicated` backend: flat-combined batched log appends plus
//! per-node lazy replicas (NR/OpLog-style, §3.2 + ROADMAP item 2).
//!
//! ## Publication headers
//!
//! Every node owns one publication holding its *list* of pending ops —
//! flat combining publishes operation lists, not single ops, so one
//! publication and one consume can carry a node's whole pending batch.
//! Its header is one line; the `nodes` header lines sit back to back in
//! global memory, and packed bytes past the header's 48 spill into the
//! node's overflow area:
//!
//! ```text
//! +0  state   u64   FREE = 0 | PENDING = 1 | CONSUMED = 2 | first idx << 8
//! +8  len     u64   packed bytes
//! +16 packed        [op len u32][framed op ([node][seq][op])] ... (48 B,
//!                   then the node's overflow area)
//! ```
//!
//! A publisher writes and flushes its overflow first and its header
//! last, through the cache: `PENDING` in the flushed header is the
//! commit point, and publishing costs no fabric atomic. A publisher
//! crash before the header flush leaves a non-`PENDING` header (the
//! flush is all-or-nothing) that every combiner ignores.
//!
//! ## The combiner
//!
//! Whoever CASes the combiner cell from 0 to `node+1` drains every
//! `PENDING` publication — one invalidate and one burst read over all
//! the header lines, then one more over the overflow span of the
//! pending headers that spilled, not a round trip per node — and
//! appends the whole batch with **one** fabric CAS on the log tail
//! ([`SharedOpLog::append_batch`]), then marks each drained header
//! `CONSUMED | first idx << 8` so its publisher learns where its ops
//! landed (a publication's ops occupy consecutive log indices) — one
//! flush over the marked span makes all the marks visible — and only
//! then folds the batch into the authoritative state. Nothing is
//! cleared afterwards.
//! An updating node tries the claim *first*: the winner's own op rides
//! the batch straight from memory and is never published at all. Losers
//! publish, then alternate between polling their header and re-trying
//! the claim (the previous combiner may have released before seeing
//! them).
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
//! A combiner can die in the window between its scan and the tail CAS
//! (nothing committed — headers still `PENDING`), after the batch
//! landed but before marking the headers (committed — re-appending
//! would double-apply), or after its marks' flush (nothing pending; the
//! role stays claimed). A publisher can die holding a flushed
//! publication, or after its overflow flush and before its header
//! (nothing published). [`SyncCell::on_node_crash`] claims the combiner
//! word — from free, or from the dead holder — and drains every
//! `PENDING` header, the dead node's among them. Only a takeover can
//! find a committed publication still `PENDING` (a combine marks its
//! headers right after its append), so only a takeover searches the
//! committed window: one range pass looks up the `[node][seq]` frame of
//! every publication's first op, and only unseen ops are re-appended.
//! Recovery runs under the host mutex every append runs under, so that
//! window holds no in-flight publication.
//!
//! Each window is a fuse point: [`rack_sim::FaultInjector::arm_crash`]
//! crashes a node on its `k`-th fabric op, so a test or campaign arms
//! `k` and calls the real entry point. A combine issues the claim CAS,
//! the header burst, an overflow burst when a pending publication
//! spilled, then the append's tail and head loads, its tail CAS and
//! three entry writes per op, then one header mark per publication,
//! then the fold's reads; [`CombineWindow`] turns a window and the
//! batch shape into its `k`. With nothing pending, the window before
//! the append is the release, which leaves the role with the dead node.
//! A spilling `nr_publish` dies between its overflow and its header at
//! `k = 2`, the first header write. The node-replicated fault-storm
//! campaign (`figures storm`) arms the first two combine windows.
//!
//! [`SharedOpLog::append_batch`]: crate::sync::oplog::SharedOpLog::append_batch
//! [`SharedOpLog::read_range`]: crate::sync::oplog::SharedOpLog::read_range

use super::{frame_op, unframe, CellInner, SyncCell, SyncCounter, SyncPolicy, SyncState};
use rack_sim::{GAddr, NodeCtx, NodeId, SimError, LINE_SIZE};
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

/// Packed bytes a header line carries after its state and length words.
const INLINE: usize = LINE_SIZE - 16;

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
/// corruption — the publication is then treated as never made. An op
/// shorter than its frame is corruption: a scan that reads a first
/// publication's `PENDING` and length before its payload lands sees
/// zero length prefixes, and must not take them for empty ops.
fn unpack_ops(buf: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut ops = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        let len = u32::from_le_bytes(buf.get(at..at + PACK_BYTES)?.try_into().ok()?) as usize;
        if len < super::FRAME_BYTES {
            return None;
        }
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
        self.slots.offset((node * LINE_SIZE) as u64)
    }

    /// `node`'s overflow area, past every node's header line.
    fn spill_addr(&self, node: usize) -> GAddr {
        let headers = self.slot_locks.len() * LINE_SIZE;
        self.slots
            .offset((headers + node * self.spill_stride) as u64)
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
            self.count(ctx, SyncCounter::NrCombinerRemoteClaims, 1);
        }
    }

    /// Publish packed framed ops from `node`: the bytes past the
    /// header's go to the overflow area and are flushed first, then
    /// `PENDING`, length and the first bytes go through the cache into
    /// the header line and one flush makes them visible together. A
    /// combiner that reads the header `PENDING` sees the overflow too.
    fn publish_slot(&self, ctx: &NodeCtx, node: usize, packed: &[u8]) -> Result<(), SimError> {
        let (head, spill) = packed.split_at(packed.len().min(INLINE));
        if !spill.is_empty() {
            let at = self.spill_addr(node);
            ctx.write(at, spill)?;
            ctx.flush(at, spill.len());
        }
        let slot = self.slot_addr(node);
        ctx.write_u64(slot, SLOT_PENDING)?;
        ctx.write_u64(slot.offset(8), packed.len() as u64)?;
        ctx.write(slot.offset(16), head)?;
        ctx.flush(slot, 16 + head.len());
        Ok(())
    }

    /// The scan, for a combine and for recovery: **one** invalidate and
    /// **one** burst read over every header line, then one more over the
    /// overflow span of the pending headers that spilled; publications
    /// decode in node order (deterministic batch order). `skip` is a
    /// combiner whose own op rides the batch unpublished. A corrupt
    /// length or framing reads as not pending: the publication is never
    /// acknowledged.
    ///
    /// The invalidates discard nothing: the scanner's cache never holds
    /// a header or overflow line dirty (publications and marks are
    /// flushed as they are written, and a combiner holds its node's
    /// publisher lock).
    fn scan_pending(&self, ctx: &NodeCtx, skip: Option<usize>) -> Result<Vec<Pending>, SimError> {
        let mut image = vec![0u8; self.slot_locks.len() * LINE_SIZE];
        ctx.invalidate(self.slots, image.len());
        ctx.read(self.slots, &mut image)?;
        let word = |h: &[u8], at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 B"));
        let cap = (INLINE + self.spill_stride) as u64;
        // `(node, header line, packed length)` of each pending header.
        let headers: Vec<(usize, &[u8], usize)> = (image.chunks(LINE_SIZE).enumerate())
            .filter(|&(node, h)| Some(node) != skip && word(h, 0) == SLOT_PENDING)
            .filter(|&(_, h)| word(h, 8) <= cap)
            .map(|(node, h)| (node, h, word(h, 8) as usize))
            .collect();
        let spilled: Vec<usize> = (headers.iter().filter(|h| h.2 > INLINE).map(|h| h.0)).collect();
        let lo = spilled.first().copied().unwrap_or(0);
        let mut spill = Vec::new();
        if let Some(&hi) = spilled.last() {
            spill.resize((hi - lo + 1) * self.spill_stride, 0);
            ctx.invalidate(self.spill_addr(lo), spill.len());
            ctx.read(self.spill_addr(lo), &mut spill)?;
        }
        let mut out = Vec::new();
        for (node, h, len) in headers {
            let mut packed = h[16..16 + len.min(INLINE)].to_vec();
            if len > INLINE {
                let at = (node - lo) * self.spill_stride;
                packed.extend_from_slice(&spill[at..at + len - INLINE]);
            }
            out.extend(unpack_ops(&packed).map(|ops| Pending { node, ops }));
        }
        Ok(out)
    }

    /// Tell `node`'s publisher its op landed at `idx`, one header at a
    /// time (the recovery drain; a live combine marks its whole batch
    /// with one flush). The header line is resident from the scan, so
    /// this is a cached write plus a line write-back, not an uncached
    /// store.
    fn mark_consumed(&self, ctx: &NodeCtx, node: usize, idx: u64) -> Result<(), SimError> {
        let slot = self.slot_addr(node);
        ctx.write_u64(slot, consumed_word(idx))?;
        ctx.flush(slot, 8);
        Ok(())
    }

    /// Abort pending publications (log full): publishers polling their
    /// header see `FREE` and surface the error; nothing was acknowledged.
    fn abort_slots(&self, ctx: &NodeCtx, pend: &[Pending]) -> Result<(), SimError> {
        for p in pend {
            ctx.store_uncached_u64(self.slot_addr(p.node), SLOT_FREE)?;
        }
        Ok(())
    }

    /// The combine: drain pending publications (plus the combiner's own
    /// unpublished op), append the batch with one tail CAS, mark the
    /// drained headers consumed, and fold the batch into the authoritative state.
    /// `f` runs on the state right after the combiner's own op applies.
    /// Returns `(own op's index, f's output, ops combined)`.
    fn combine_locked<R>(
        &self,
        ctx: &NodeCtx,
        own: Option<(usize, &[u8])>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<(Option<u64>, Option<R>, u64), SimError> {
        let pend = self.scan_pending(ctx, own.map(|(me, _)| me))?;
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
                return Err(e);
            }
        };
        // Mark the headers before folding: once the batch is committed, no
        // error on the fold may leave a committed publication `PENDING`
        // (recovery searches the log for those only on a takeover). A
        // publication's ops land consecutively; the consumed word carries
        // the first index. The header lines are resident from the scan, so
        // these are cached writes.
        let mut idx = first + u64::from(own.is_some());
        for p in &pend {
            ctx.write_u64(self.slot_addr(p.node), consumed_word(idx))?;
            idx += p.ops.len() as u64;
        }
        // One flush makes every mark visible (`pend` is in node order).
        // It also covers the unmarked headers in between: those were never
        // written here, so they are clean and the flush only drops them.
        if let (Some(lo), Some(hi)) = (pend.first(), pend.last()) {
            ctx.flush(self.slot_addr(lo.node), (hi.node - lo.node) * LINE_SIZE + 8);
        }
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
        // Waiter: publish, then alternate between polling the header and
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
    /// authoritative state, charged as one snapshot fetch of the state's
    /// line). Returns the guard.
    fn replica_or_materialize(
        &self,
        ctx: &NodeCtx,
        me: usize,
    ) -> std::sync::MutexGuard<'_, Option<Replica<T>>> {
        let mut guard = self.replicas[me].lock();
        if guard.is_none() {
            let inner = self.inner.lock();
            let lat = ctx.latency();
            ctx.charge(lat.invalidate_line_ns + lat.local_write_ns + lat.global_read_ns);
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
                ctx.charge(lat.invalidate_line_ns + lat.local_write_ns + lat.global_read_ns);
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
    /// live holder elsewhere owns the publications and recovery leaves
    /// them.
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
            #[expect(
                clippy::disallowed_methods,
                reason = "cold path: re-election only fires after a combiner crash"
            )]
            ctx.stats().registry().add("sync", "reelections", 1);
        } else if holder != 0 {
            return Ok(false);
        }
        self.note_combiner_claim(ctx);
        let res = self.nr_recover_drain(ctx, takeover);
        let released = self.combiner.store(ctx, 0);
        let tail = res?;
        released?;
        if let Some(tail) = tail {
            self.drain_to(ctx, inner, tail)?;
        }
        Ok(takeover)
    }

    /// Resolve the pending publications: every `PENDING` header, the
    /// dead node's among them, through the combine's scan.
    ///
    /// On a `takeover` the dead combiner may have appended its batch
    /// before dying, so one range pass over the committed window finds
    /// the publications that already landed; only the unseen ones are
    /// re-appended. From a free role nothing pending can be committed:
    /// a combine marks its slots before anything after its append can
    /// fail, so the search is skipped. Returns the new tail when
    /// something was appended.
    fn nr_recover_drain(&self, ctx: &NodeCtx, takeover: bool) -> Result<Option<u64>, SimError> {
        let pend = self.scan_pending(ctx, None)?;
        if pend.is_empty() {
            return Ok(None);
        }
        // Dedup on each publication's *first* op: its ops were
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
                    return Err(e);
                }
            }
        }
        Ok(tail)
    }

    // ----- split-protocol hooks (figures storm / figures replication) -----

    /// Publish `op` from this node and return, without waiting
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

    /// Publish a *batch* of ops as one publication: one header flush (and
    /// one overflow flush when it spills) carries the whole list, and the
    /// combiner consumes it with one header write — the publication-side half of flat
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
        if packed.len() > INLINE + self.spill_stride {
            return Err(SimError::Protocol(format!(
                "publication batch of {} bytes exceeds slot capacity {}",
                packed.len(),
                INLINE + self.spill_stride
            )));
        }
        Ok((keys, packed))
    }

    /// Claim the combiner role, run one full combine over the published
    /// headers, release. Returns the number of ops combined.
    ///
    /// # Errors
    ///
    /// `Protocol` if another node holds the combiner role; log and
    /// memory errors are propagated.
    pub fn nr_combine(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        let me = self.me(ctx);
        // As on the update path, the combiner holds its node's publisher
        // lock: no same-node publication can sit dirty in the cache the
        // header-span invalidate and flush sweep.
        let _publisher = self.slot_locks[me].lock();
        if self.combiner.compare_exchange(ctx, 0, me as u64 + 1)? != 0 {
            return Err(SimError::Protocol("combiner role already claimed".into()));
        }
        self.note_combiner_claim(ctx);
        let res = self.combine_locked(ctx, None, |_| ());
        let released = self.combiner.store(ctx, 0);
        let (_, _, combined) = res?;
        released?;
        self.count(ctx, SyncCounter::Ops(SyncPolicy::NodeReplicated), combined);
        Ok(combined)
    }

    /// Poll this node's publication header: `Some(first log index)` once
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

    /// The nodes whose publication header reads `PENDING` (one uncached
    /// load per header), for diagnostics and tests that check every
    /// publication settles.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn pending_publishers(&self, ctx: &NodeCtx) -> Result<Vec<NodeId>, SimError> {
        let mut out = Vec::new();
        for node in 0..self.slot_locks.len() {
            if ctx.load_uncached_u64(self.slot_addr(node))? == SLOT_PENDING {
                out.push(NodeId(node));
            }
        }
        Ok(out)
    }
}

/// A crash window inside [`SyncCell::nr_combine`], for a
/// [`rack_sim::FaultInjector::arm_crash`] fuse: the fabric op the fuse
/// burns on follows a fixed sequence, so the window and the batch shape
/// fix its `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombineWindow {
    /// The append's first tail load: the batch is scanned, nothing is
    /// committed. With nothing pending this op is the release, which
    /// leaves the role with the dead node.
    BeforeAppend,
    /// The first header mark: the batch committed, every header still
    /// `PENDING`.
    AfterAppend,
    /// The fold's first read: every header marked, nothing folded.
    AfterMarks,
}

impl CombineWindow {
    /// The `[atomics, reads, writes]` a combine of `ops` pending ops in
    /// `publications` publications issues before this window; `spilled`
    /// when any of them spilled past its header line.
    pub fn issued_before(self, publications: u64, ops: u64, spilled: bool) -> [u64; 3] {
        // The claim CAS, the header burst and any overflow burst.
        let scan = [1, 1 + u64::from(spilled), 0];
        // The append's tail and head loads, its tail CAS and three entry
        // writes per op.
        let append = [scan[0] + 1, scan[1] + 2, 3 * ops];
        match self {
            CombineWindow::BeforeAppend => scan,
            CombineWindow::AfterAppend => append,
            // One header mark per publication.
            CombineWindow::AfterMarks => [append[0], append[1], append[2] + publications],
        }
    }

    /// The `k` to arm: the op right after [`Self::issued_before`].
    pub fn fuse_op(self, publications: u64, ops: u64, spilled: bool) -> u64 {
        self.issued_before(publications, ops, spilled)
            .iter()
            .sum::<u64>()
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
    use super::CombineWindow;
    use std::sync::Arc;

    use rack_sim::{NodeCtx, NodeId, Rack, RackConfig, SimError};

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

    /// Arm node `n`'s crash fuse at its `k`-th op, run `f` there, check
    /// that the fuse burnt, and return the `[atomics, reads, writes]`
    /// the node issued before it did.
    fn issued_before_fuse<R: std::fmt::Debug>(
        rack: &Rack,
        n: usize,
        k: u64,
        f: impl FnOnce(&NodeCtx) -> Result<R, SimError>,
    ) -> [u64; 3] {
        let node = rack.node(n);
        let before = node.stats().snapshot().fabric_ops();
        rack.faults().arm_crash(NodeId(n), k);
        let res = f(&node);
        assert!(matches!(res, Err(SimError::NodeDown { .. })), "{res:?}");
        let after = node.stats().snapshot().fabric_ops();
        [0, 1, 2].map(|i| after[i] - before[i])
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
        // Claim CAS + one tail CAS for the whole batch.
        let atomics = rack.node(0).stats().snapshot().global_atomics - atomics_before;
        assert_eq!(atomics, 2, "claim + tail CAS, nothing per-op");
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
            0,
            "publishing the whole batch takes no fabric atomic"
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
        // Node 3 claims and scans, then dies on the append's first tail
        // load, its third fabric op.
        let k = CombineWindow::BeforeAppend.fuse_op(2, 2, false);
        let issued = issued_before_fuse(&rack, 3, k, |n3| c.nr_combine(n3));
        assert_eq!(issued, [1, 1, 0], "the claim and the scan");
        assert_eq!(c.committed(&rack.node(0)).unwrap(), 1, "nothing committed");
        assert_eq!(
            c.pending_publishers(&rack.node(0)).unwrap(),
            [NodeId(1), NodeId(2)]
        );
        // Recovery re-elects and commits the stranded publications.
        assert!(c.on_node_crash(&rack.node(0), NodeId(3)).unwrap());
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
        // Node 3 claims, scans and appends the batch (tail and head loads,
        // the tail CAS, three entry writes per op), then dies on its
        // first header mark, its fifteenth fabric op.
        let k = CombineWindow::AfterAppend.fuse_op(2, 3, false);
        let issued = issued_before_fuse(&rack, 3, k, |n3| c.nr_combine(n3));
        assert_eq!(issued, [2, 3, 9], "through the entries, no mark");
        assert_eq!(c.committed(&rack.node(0)).unwrap(), 3, "batch landed");
        assert_eq!(
            c.pending_publishers(&rack.node(0)).unwrap(),
            [NodeId(1), NodeId(2)]
        );
        // Recovery dedups against the committed window: no re-append.
        assert!(c.on_node_crash(&rack.node(0), NodeId(3)).unwrap());
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
        let n0 = rack.node(0);
        c.nr_publish(&rack.node(1), &op(1, 1)).unwrap();
        c.nr_publish(&rack.node(2), &op(2, 7)).unwrap();
        rack.faults().crash_node(NodeId(2), 0);
        let pending = c.pending_publishers(&n0).unwrap();
        assert_eq!(pending, [NodeId(1), NodeId(2)]);
        // No combiner was involved; recovery still commits the orphan,
        // and the live publication beside it.
        assert!(!c.on_node_crash(&n0, NodeId(2)).unwrap());
        assert_eq!(c.pending_publishers(&n0).unwrap(), []);
        assert_eq!(c.nr_poll(&rack.node(1)).unwrap(), Some(0));
        assert_eq!(c.peek(|t| t.per_node.clone()), vec![(1, 1), (2, 7)]);
        // Nothing is left for a later combine to apply a second time.
        assert_eq!(c.nr_combine(&rack.node(3)).unwrap(), 0);
        assert_eq!(c.committed(&n0).unwrap(), 2);
        let (rebuilt, replayed) = c.replay(&n0, Tally::default()).unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(c.peek(|t| t.clone()), rebuilt);
    }

    /// `node`'s op `step`, padded to `len` bytes.
    fn long_op(node: u32, step: u32, len: usize) -> Vec<u8> {
        let mut v = op(node, step);
        v.resize(len, 0xA5);
        v
    }

    /// 128-byte log entries: a publication carries up to 176 packed
    /// bytes, 48 in its header line and 128 in its overflow area.
    fn spill_cell(rack: &Rack) -> Arc<SyncCell<Tally>> {
        SyncCell::alloc(
            rack.global(),
            "test_nr_spill",
            SyncCellConfig::new(rack.node_count(), SyncPolicy::NodeReplicated).with_log(64, 128),
            Tally::default(),
        )
        .unwrap()
    }

    #[test]
    fn spilled_publications_drain_through_one_overflow_burst() {
        use rack_sim::{AddrClass, OpKind};
        let rack = Rack::new(RackConfig::n_node(4));
        let c = spill_cell(&rack);
        // Nodes 0 and 3 spill (a 100-byte op; a pair of 40-byte ops), node
        // 2 fits its header, node 1 publishes nothing.
        c.nr_publish(&rack.node(0), &long_op(0, 1, 100)).unwrap();
        c.nr_publish(&rack.node(2), &op(2, 2)).unwrap();
        c.nr_publish_batch(&rack.node(3), &[&long_op(3, 3, 40), &long_op(3, 4, 40)])
            .unwrap();
        let combiner = rack.node(1);
        rack.enable_tracing();
        assert_eq!(c.nr_combine(&combiner).unwrap(), 4);
        rack.disable_tracing();
        let bursts = (combiner.stats().trace().events().iter())
            .filter(|e| e.kind == OpKind::Read && e.addr_class == AddrClass::Global)
            .count();
        assert_eq!(
            bursts, 2,
            "one burst over the headers, one over the overflow span"
        );
        assert_eq!(c.nr_poll(&rack.node(0)).unwrap(), Some(0));
        assert_eq!(c.nr_poll(&rack.node(2)).unwrap(), Some(1));
        assert_eq!(c.nr_poll(&rack.node(3)).unwrap(), Some(2));
        assert_eq!(
            c.peek(|t| t.per_node.clone()),
            vec![(0, 1), (2, 2), (3, 3), (3, 4)]
        );
        // A batch past the header plus the overflow area is refused.
        let err = c.nr_publish_batch(&rack.node(1), &[&long_op(1, 5, 100), &long_op(1, 6, 100)]);
        assert!(matches!(err, Err(SimError::Protocol(_))));
    }

    #[test]
    fn a_publisher_dead_between_its_overflow_and_its_header_publishes_nothing() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = spill_cell(&rack);
        let (n0, n2) = (rack.node(0), rack.node(2));
        // A 100-byte op spills: the overflow is written and flushed, then
        // the header write, the publication's second fabric op, burns.
        let big = long_op(2, 7, 100);
        let issued = issued_before_fuse(&rack, 2, 2, |n2| c.nr_publish(n2, &big));
        assert_eq!(issued, [0, 0, 1], "the overflow write");
        let overflow = rack.global().load_u64(c.spill_addr(2)).unwrap();
        assert_eq!(
            overflow,
            u64::from_le_bytes([0xA5; 8]),
            "the overflow landed"
        );
        assert!(!c.on_node_crash(&n0, NodeId(2)).unwrap());
        assert_eq!(c.committed(&n0).unwrap(), 0, "never applied");
        assert_eq!(c.pending_publishers(&n0).unwrap(), []);
        assert_eq!(c.nr_combine(&rack.node(1)).unwrap(), 0);
        // The restarted publisher's next publication lands once.
        rack.faults().restart_node(NodeId(2), 0);
        c.nr_publish(&n2, &long_op(2, 8, 100)).unwrap();
        assert_eq!(c.nr_combine(&rack.node(1)).unwrap(), 1);
        assert_eq!(c.nr_poll(&n2).unwrap(), Some(0));
        assert_eq!(c.peek(|t| t.per_node.clone()), vec![(2, 8)]);
    }

    #[test]
    fn a_combiner_dead_before_appending_a_spilled_batch_loses_nothing() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = spill_cell(&rack);
        let n0 = rack.node(0);
        c.nr_publish(&rack.node(2), &long_op(2, 7, 100)).unwrap();
        // The overflow burst is one more read before the append.
        let k = CombineWindow::BeforeAppend.fuse_op(1, 1, true);
        let issued = issued_before_fuse(&rack, 1, k, |n1| c.nr_combine(n1));
        assert_eq!(
            issued,
            [1, 2, 0],
            "the claim, the header and overflow bursts"
        );
        assert_eq!(c.committed(&n0).unwrap(), 0, "nothing committed");
        assert!(c.on_node_crash(&n0, NodeId(1)).unwrap());
        assert_eq!(c.nr_poll(&rack.node(2)).unwrap(), Some(0));
        assert_eq!(c.peek(|t| t.per_node.clone()), vec![(2, 7)]);
    }

    #[test]
    fn combiner_dead_after_its_marks_leaves_every_later_op_landing_once() {
        let rack = Rack::new(RackConfig::n_node(4));
        let c = nr_cell(&rack);
        let n0 = rack.node(0);
        // Four committed entries no fold has applied yet (log lines 0..3
        // exactly), so the combine below has an older fold to die in.
        let early: Vec<Vec<u8>> = (0..4)
            .map(|i| super::super::frame_op(3, 1000 + i, &op(3, 1000 + i)))
            .collect();
        c.op_log().append_batch(&n0, &early).unwrap();
        c.nr_publish_batch(&rack.node(1), &[&op(1, 1), &op(1, 5)])
            .unwrap();
        c.nr_publish(&rack.node(2), &op(2, 2)).unwrap();
        // Node 3 claims the role, scans, appends three ops, marks two
        // headers and flushes the marks, then dies on its fold's first
        // read (its seventeenth fabric op), before it folds or releases.
        let k = CombineWindow::AfterMarks.fuse_op(2, 3, false);
        let issued = issued_before_fuse(&rack, 3, k, |n3| c.nr_combine(n3));
        assert_eq!(issued, [2, 3, 11], "through the marks, no fold read");
        assert_eq!(c.pending_publishers(&n0).unwrap(), []);
        assert_eq!(c.fold_position(), (0, 0), "nothing folded");
        // Recovery takes the role over and has nothing to re-append.
        assert!(c.on_node_crash(&n0, NodeId(3)).unwrap());
        assert_eq!(c.committed(&n0).unwrap(), 7);
        rack.faults().restart_node(NodeId(3), 0);
        // A full round: every node publishes, one node combines.
        for n in 0..4u32 {
            c.nr_publish(&rack.node(n as usize), &op(n, 10 + n))
                .unwrap();
        }
        assert_eq!(c.nr_combine(&rack.node(1)).unwrap(), 4);
        for n in 0..4u64 {
            assert_eq!(c.nr_poll(&rack.node(n as usize)).unwrap(), Some(7 + n));
        }
        assert_eq!(c.pending_publishers(&n0).unwrap(), []);
        let mut expected: Vec<(u32, u32)> = (1000..1004).map(|s| (3, s)).collect();
        expected.extend([(1, 1), (1, 5), (2, 2), (0, 10), (1, 11), (2, 12), (3, 13)]);
        assert_eq!(c.peek(|t| t.per_node.clone()), expected);
        let (rebuilt, replayed) = c.replay(&n0, Tally::default()).unwrap();
        assert_eq!(replayed, 11);
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
        assert_eq!(c.pending_publishers(&n0).unwrap(), []);
        rack.global().scrub(flag, 8);
        rack.global().store_u64(flag, word).unwrap();
        // Recovery from a free role skips the log search; it must not
        // re-append the committed publications.
        rack.faults().crash_node(NodeId(3), 0);
        assert!(!c.on_node_crash(&n0, NodeId(3)).unwrap());
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
            .max_by_key(|&n| topo.lca_level(NodeId(n), home))
            .unwrap();
        assert!(topo.lca_level(NodeId(far), home) > 0);

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
            .max_by_key(|&n| topo.lca_level(NodeId(n), home))
            .unwrap();
        let dist = u64::from(topo.lca_level(NodeId(far), home));
        assert!(dist > 0 && far != home.0);
        let other = (0..rack.node_count())
            .find(|&n| n != far && n != home.0)
            .unwrap();

        // Hold the combiner word hostage: with nothing pending, `other`'s
        // combine dies on its release, the store after the claim CAS and
        // the scan. Then drive a near and a far waiter to the stall
        // error: the far one must have skipped its first `dist` re-claim
        // CASes in deference to closer peers.
        let k = CombineWindow::BeforeAppend.fuse_op(0, 0, false);
        let issued = issued_before_fuse(&rack, other, k, |n| c.nr_combine(n));
        assert_eq!(issued, [1, 1, 0], "the claim and the scan");
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
            matches!(c.nr_poll(&rack.node(1)), Err(SimError::Protocol(_))),
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
        // A first publication's length word read over its still-zero
        // payload: zero length prefixes, not five empty ops.
        assert_eq!(unpack_ops(&[0u8; 20]), None);
    }
}
