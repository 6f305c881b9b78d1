//! [`ChunkStore`] — claim, fetch, intern, commit.
//!
//! The store stitches the three layers together: the [`SyncCell`]-backed
//! chunk index decides who fetches what (first `CLAIM` in log order wins
//! — single-flight per hash, rack-wide), the sharded backends serve the
//! actual bytes in parallel slices, and the page deduper interns each
//! chunk into one shared global frame (identical content across
//! unrelated images lands on the same frame).
//!
//! The fast path for a caller is [`ChunkStore::ensure`]: "make these
//! chunks resident rack-wide". Chunks already present cost a batched
//! index read; chunks nobody holds are claimed, fetched and committed
//! by this node; chunks another node is mid-fetch on are *waited for*
//! (fetch coalescing) and charged one cache hit, not a download.
//!
//! Crash safety: a fetcher that dies mid-fetch leaves `Fetching`
//! entries in the index. [`ChunkStore`] implements
//! [`SyncRecover`], so an attached `RecoveryOrchestrator` drains the
//! cell's committed log and appends an `ABORT` op for the dead node —
//! survivors then re-claim and finish the download, and nothing is
//! fetched twice.
//!
//! [`SyncCell`]: flacdk::sync::SyncCell

use crate::backend::ShardedBackends;
use crate::chunk_hash_each;
use crate::index::{abort_op, claim_op, commit_op, ChunkIndexState, ChunkState};
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncRecover};
use flacos_mem::dedup::PageDeduper;
use rack_sim::sync::Condvar;
use rack_sim::{GAddr, GlobalMemory, NodeCtx, NodeId, SimError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Construction parameters for a [`ChunkStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Nodes that may operate on the store.
    pub nodes: usize,
    /// Chunk-index op-log capacity in slots.
    pub log_capacity: usize,
    /// Chunk-index op-log slot size in bytes.
    pub log_entry_size: usize,
    /// Max hashes per claim/commit op (bounded by the slot size).
    pub claim_batch: usize,
    /// Index synchronization policy (read-mostly ⇒ replicated).
    pub policy: SyncPolicy,
}

impl StoreConfig {
    /// Defaults: 1024-slot log of 8 KiB entries (8 MiB of global
    /// memory), 256-hash batches, node-replicated index (every serving
    /// node both claims and commits, so the multi-writer batch tier
    /// wins over per-op delegation or replicated tail checks).
    pub fn new(nodes: usize) -> Self {
        StoreConfig {
            nodes,
            log_capacity: 1024,
            log_entry_size: 8192,
            claim_batch: 256,
            policy: SyncPolicy::NodeReplicated,
        }
    }

    /// Override the op-log geometry.
    pub fn with_log(mut self, capacity: usize, entry_size: usize) -> Self {
        self.log_capacity = capacity;
        self.log_entry_size = entry_size;
        self
    }

    /// Override the claim/commit batch size.
    pub fn with_claim_batch(mut self, batch: usize) -> Self {
        self.claim_batch = batch.max(1);
        self
    }
}

/// Store effectiveness counters (a snapshot; all relaxed atomics on the
/// hot path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Chunks this store instance downloaded from backends.
    pub chunks_fetched: u64,
    /// Bytes downloaded from backends.
    pub bytes_fetched: u64,
    /// Requested chunks already present rack-wide.
    pub rack_hits: u64,
    /// Requested chunks served by waiting on another node's in-flight
    /// fetch (single-flight coalescing).
    pub coalesced: u64,
    /// Claims lost to an earlier claim in log order.
    pub claims_lost: u64,
    /// Commits that arrived after the claim was re-assigned (frame
    /// released, chunk retried).
    pub commits_lost: u64,
    /// In-flight claims aborted on behalf of crashed nodes.
    pub claims_aborted: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    chunks_fetched: AtomicU64,
    bytes_fetched: AtomicU64,
    rack_hits: AtomicU64,
    coalesced: AtomicU64,
    claims_lost: AtomicU64,
    commits_lost: AtomicU64,
    claims_aborted: AtomicU64,
}

/// What a [`ChunkStore::claim`] call learned about each requested hash.
#[derive(Debug, Default, Clone)]
pub struct ClaimOutcome {
    /// Hashes this node now owns the fetch for.
    pub won: Vec<u64>,
    /// Hashes already resident: `(hash, frame, len)`.
    pub present: Vec<(u64, GAddr, u32)>,
    /// Hashes another node is currently fetching.
    pub in_flight: Vec<u64>,
}

/// What one [`ChunkStore::ensure`] call did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EnsureReport {
    /// Hashes requested (including duplicates).
    pub requested: u64,
    /// Duplicate hashes in the request (served once).
    pub duplicates: u64,
    /// Chunks this call downloaded and committed.
    pub fetched: u64,
    /// Bytes this call downloaded.
    pub bytes_fetched: u64,
    /// Chunks already resident rack-wide.
    pub rack_hits: u64,
    /// Chunks served by coalescing onto another node's fetch.
    pub coalesced: u64,
}

/// What one [`ChunkStore::complete`] call did.
#[derive(Debug, Default, Clone)]
pub struct CompleteOutcome {
    /// Chunks fetched, interned, and committed present.
    pub committed: u64,
    /// Bytes downloaded for the committed chunks.
    pub bytes: u64,
    /// Hashes whose commit lost to a recovery re-claim (frame released;
    /// re-claim them to make progress).
    pub lost: Vec<u64>,
}

/// The content-addressed chunk store (see module docs).
#[derive(Debug)]
pub struct ChunkStore {
    cell: Arc<SyncCell<ChunkIndexState>>,
    backends: Arc<ShardedBackends>,
    dedup: Arc<PageDeduper>,
    claim_batch: usize,
    #[expect(
        clippy::disallowed_types,
        reason = "host-side wakeup channel for rack-wide fill waiting; the rack-visible \
                  protocol state is the SyncCell index, and waiters re-validate against \
                  it (charged) before returning"
    )]
    fill_epoch: rack_sim::sync::Mutex<u64>,
    fetch_cv: Condvar,
    stats: StatCells,
}

impl ChunkStore {
    /// Allocate the store's chunk index in `global` memory.
    ///
    /// # Errors
    ///
    /// Propagates global-memory allocation errors.
    pub fn alloc(
        global: &GlobalMemory,
        backends: Arc<ShardedBackends>,
        dedup: Arc<PageDeduper>,
        cfg: StoreConfig,
    ) -> Result<Arc<Self>, SimError> {
        let cell = SyncCell::alloc(
            global,
            "chunk_index",
            SyncCellConfig::new(cfg.nodes, cfg.policy)
                .with_log(cfg.log_capacity, cfg.log_entry_size),
            ChunkIndexState::default(),
        )?;
        // A claim op is 9 + 8·batch bytes, a commit op 9 + 20·batch:
        // both must fit one log slot after the slot header (16 B) and
        // the SyncCell op frame.
        let max_op = 9 + 20 * cfg.claim_batch;
        let overhead = 16 + flacdk::sync::FRAME_BYTES;
        assert!(
            max_op + overhead <= cfg.log_entry_size,
            "claim_batch {} needs {} B ops but log slots hold {} B",
            cfg.claim_batch,
            max_op,
            cfg.log_entry_size - overhead,
        );
        Ok(Arc::new(ChunkStore {
            cell,
            backends,
            dedup,
            claim_batch: cfg.claim_batch,
            fill_epoch: Default::default(),
            fetch_cv: Condvar::new(),
            stats: StatCells::default(),
        }))
    }

    /// The backend shards this store fetches from.
    pub fn backends(&self) -> &Arc<ShardedBackends> {
        &self.backends
    }

    /// The frame deduper chunks are interned into.
    pub fn dedup(&self) -> &Arc<PageDeduper> {
        &self.dedup
    }

    /// Uncharged host-side inspection of the index (tests, invariants).
    pub fn peek_index<R>(&self, f: impl FnOnce(&ChunkIndexState) -> R) -> R {
        self.cell.peek(f)
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            chunks_fetched: self.stats.chunks_fetched.load(Ordering::Relaxed),
            bytes_fetched: self.stats.bytes_fetched.load(Ordering::Relaxed),
            rack_hits: self.stats.rack_hits.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            claims_lost: self.stats.claims_lost.load(Ordering::Relaxed),
            commits_lost: self.stats.commits_lost.load(Ordering::Relaxed),
            claims_aborted: self.stats.claims_aborted.load(Ordering::Relaxed),
        }
    }

    fn notify_fills(&self) {
        let mut epoch = self.fill_epoch.lock();
        *epoch += 1;
        self.fetch_cv.notify_all();
    }

    /// Claim fetch ownership of `hashes`. One batched index read
    /// classifies them; the absent ones go into a `CLAIM` op whose
    /// post-op state (log order!) decides who actually won each hash.
    ///
    /// # Errors
    ///
    /// Propagates index (fabric / log) errors.
    pub fn claim(&self, ctx: &NodeCtx, hashes: &[u64]) -> Result<ClaimOutcome, SimError> {
        let me = ctx.id().0 as u32;
        let mut out = ClaimOutcome::default();
        for batch in hashes.chunks(self.claim_batch) {
            let pre: Vec<Option<ChunkState>> = self
                .cell
                .read(ctx, |s| batch.iter().map(|&h| s.get(h)).collect())?;
            let mut to_claim = Vec::new();
            for (&h, st) in batch.iter().zip(&pre) {
                match st {
                    Some(ChunkState::Present { frame, len, .. }) => {
                        out.present.push((h, *frame, *len));
                    }
                    Some(ChunkState::Fetching { node }) if *node == me => out.won.push(h),
                    Some(ChunkState::Fetching { .. }) => out.in_flight.push(h),
                    None => to_claim.push(h),
                }
            }
            if to_claim.is_empty() {
                continue;
            }
            let op = claim_op(me, &to_claim);
            let (_, post): (u64, Vec<Option<ChunkState>>) =
                self.cell
                    .update_map(ctx, &op, |s| to_claim.iter().map(|&h| s.get(h)).collect())?;
            for (&h, st) in to_claim.iter().zip(&post) {
                match st {
                    Some(ChunkState::Fetching { node }) if *node == me => out.won.push(h),
                    Some(ChunkState::Fetching { .. }) => {
                        self.stats.claims_lost.fetch_add(1, Ordering::Relaxed);
                        out.in_flight.push(h);
                    }
                    Some(ChunkState::Present { frame, len, .. }) => {
                        out.present.push((h, *frame, *len));
                    }
                    // Claimed and aborted between our op and the map —
                    // only possible with a concurrent recovery; retry.
                    None => out.in_flight.push(h),
                }
            }
        }
        self.stats
            .rack_hits
            .fetch_add(out.present.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Fetch and commit chunks this node won the claim for: parallel
    /// sharded download, hash verification, dedup intern, `COMMIT` op.
    ///
    /// This is the second half of the two-phase `claim`/`complete`
    /// protocol [`ChunkStore::ensure`] wraps. Drive it directly when
    /// the caller needs a crash window *between* the phases (the fault
    /// storm does exactly that); `won` must be hashes this node won via
    /// [`ChunkStore::claim`].
    ///
    /// On an error (a failed download, corrupt bytes, a failed intern
    /// or commit) the node gives up every claim it still holds with an
    /// `ABORT` op of its own, best effort, and releases the frames the
    /// failing batch interned but did not commit; so other nodes
    /// re-claim those chunks instead of waiting for this node to be
    /// declared crashed.
    ///
    /// # Errors
    ///
    /// Propagates backend, dedup, and index errors.
    pub fn complete(&self, ctx: &NodeCtx, won: &[u64]) -> Result<CompleteOutcome, SimError> {
        let mut out = CompleteOutcome {
            committed: 0,
            bytes: 0,
            lost: Vec::new(),
        };
        if won.is_empty() {
            return Ok(out);
        }
        let mut interned = Vec::new();
        let done = self.fetch_and_commit(ctx, won, &mut out, &mut interned);
        self.stats
            .chunks_fetched
            .fetch_add(out.committed, Ordering::Relaxed);
        self.stats
            .bytes_fetched
            .fetch_add(out.bytes, Ordering::Relaxed);
        if done.is_err() {
            self.give_up(ctx, &interned);
        }
        self.notify_fills();
        done.map(|()| out)
    }

    /// The body of [`ChunkStore::complete`]: each claim batch is
    /// verified, interned (its frames pushed to `interned` as they are
    /// made, cleared once the batch's commit resolves) and committed.
    fn fetch_and_commit(
        &self,
        ctx: &NodeCtx,
        won: &[u64],
        out: &mut CompleteOutcome,
        interned: &mut Vec<(u64, GAddr)>,
    ) -> Result<(), SimError> {
        let me = ctx.id().0 as u32;
        let blobs = self.backends.fetch_many(ctx, won)?;
        for (hash_batch, blob_batch) in won
            .chunks(self.claim_batch)
            .zip(blobs.chunks(self.claim_batch))
        {
            let bytes: Vec<&[u8]> = blob_batch.iter().map(|b| b.as_slice()).collect();
            let shipped = chunk_hash_each(&bytes);
            if let Some((&h, _)) = hash_batch.iter().zip(&shipped).find(|(h, s)| h != s) {
                return Err(SimError::Protocol(format!(
                    "backend shipped corrupt bytes for chunk {h:#018x}"
                )));
            }
            let mut entries = Vec::with_capacity(hash_batch.len());
            for (&h, blob) in hash_batch.iter().zip(bytes) {
                let frame = self.dedup.intern_with_hash(ctx, h, blob)?;
                interned.push((h, frame));
                entries.push((h, frame, blob.len() as u32));
            }
            let op = commit_op(me, &entries);
            let (_, landed): (u64, Vec<bool>) = self.cell.update_map(ctx, &op, |s| {
                entries.iter().map(|&e| landed(s, me, e)).collect()
            })?;
            interned.clear();
            for (&(h, frame, len), &ok) in entries.iter().zip(&landed) {
                if ok {
                    out.committed += 1;
                    out.bytes += u64::from(len);
                } else {
                    // Our claim was re-assigned (recovery decided we
                    // were dead); release the duplicate ref and retry.
                    self.dedup.release(ctx, frame)?;
                    self.stats.commits_lost.fetch_add(1, Ordering::Relaxed);
                    out.lost.push(h);
                }
            }
        }
        Ok(())
    }

    /// Best-effort cleanup after a failed [`ChunkStore::complete`]:
    /// abort this node's remaining claims, then release each frame of
    /// the failing batch whose commit did not land (a commit that failed
    /// after its append still owns its frames).
    fn give_up(&self, ctx: &NodeCtx, interned: &[(u64, GAddr)]) {
        let me = ctx.id().0 as u32;
        if self.cell.update(ctx, &abort_op(me)).is_err() || interned.is_empty() {
            return;
        }
        let Ok(kept) = self.cell.read(ctx, |s| {
            interned
                .iter()
                .map(|&(h, frame)| landed(s, me, (h, frame, 0)))
                .collect::<Vec<bool>>()
        }) else {
            return;
        };
        for (&(_, frame), kept) in interned.iter().zip(kept) {
            if !kept {
                let _ = self.dedup.release(ctx, frame);
            }
        }
    }

    /// Wait for other nodes' in-flight fetches of `hashes` to resolve.
    /// Returns the hashes that ended up *absent* (their fetcher was
    /// aborted — caller should re-claim) and the count served by
    /// coalescing.
    fn await_fills(&self, ctx: &NodeCtx, hashes: &[u64]) -> Result<(Vec<u64>, u64), SimError> {
        loop {
            let (missing, fetching, present) = self.cell.read(ctx, |s| {
                let mut missing = Vec::new();
                let (mut fetching, mut present) = (0u64, 0u64);
                for &h in hashes {
                    match s.get(h) {
                        None => missing.push(h),
                        Some(ChunkState::Fetching { .. }) => fetching += 1,
                        Some(ChunkState::Present { .. }) => present += 1,
                    }
                }
                (missing, fetching, present)
            })?;
            if fetching == 0 {
                // A coalesced chunk costs one local cache hit — the
                // same charge a coalesced fill pays in the node cache.
                ctx.charge(present.saturating_mul(ctx.latency().cache_hit_ns));
                self.stats.coalesced.fetch_add(present, Ordering::Relaxed);
                return Ok((missing, present));
            }
            let guard = self.fill_epoch.lock();
            // Re-validate under the lock: a commit between the read
            // above and this acquisition must not become a lost wakeup.
            let still_in_flight = self.cell.peek(|s| {
                hashes
                    .iter()
                    .any(|&h| matches!(s.get(h), Some(ChunkState::Fetching { .. })))
            });
            if still_in_flight {
                drop(self.fetch_cv.wait(guard));
            }
        }
    }

    /// Make `hashes` resident rack-wide: claim what is absent, fetch
    /// won claims in parallel across backend shards, wait out (coalesce
    /// onto) other nodes' in-flight fetches.
    ///
    /// Blocks until every hash is present. If a claim holder crashes,
    /// progress resumes once recovery appends its `ABORT` op
    /// ([`ChunkStore::abort_node`] / the attached orchestrator).
    ///
    /// # Errors
    ///
    /// Propagates backend and index errors (e.g. a hash no backend
    /// serves).
    pub fn ensure(&self, ctx: &NodeCtx, hashes: &[u64]) -> Result<EnsureReport, SimError> {
        let mut rep = EnsureReport {
            requested: hashes.len() as u64,
            ..EnsureReport::default()
        };
        let mut seen = std::collections::HashSet::with_capacity(hashes.len());
        let mut remaining: Vec<u64> = hashes.iter().copied().filter(|&h| seen.insert(h)).collect();
        rep.duplicates = rep.requested - remaining.len() as u64;
        while !remaining.is_empty() {
            let claim = self.claim(ctx, &remaining)?;
            rep.rack_hits += claim.present.len() as u64;
            let mut retry = Vec::new();
            if !claim.won.is_empty() {
                let done = self.complete(ctx, &claim.won)?;
                rep.fetched += done.committed;
                rep.bytes_fetched += done.bytes;
                retry.extend(done.lost);
            }
            if !claim.in_flight.is_empty() {
                let (absent, coalesced) = self.await_fills(ctx, &claim.in_flight)?;
                rep.coalesced += coalesced;
                retry.extend(absent);
            }
            remaining = retry;
        }
        Ok(rep)
    }

    /// Resolve `hashes` to their resident frames (one batched index
    /// read per [`StoreConfig::claim_batch`] hashes). Absent or
    /// in-flight chunks come back as `None`.
    ///
    /// # Errors
    ///
    /// Propagates index read errors.
    pub fn lookup(
        &self,
        ctx: &NodeCtx,
        hashes: &[u64],
    ) -> Result<Vec<Option<(GAddr, u32)>>, SimError> {
        let mut out = Vec::with_capacity(hashes.len());
        for batch in hashes.chunks(self.claim_batch) {
            let states: Vec<Option<(GAddr, u32)>> = self.cell.read(ctx, |s| {
                batch
                    .iter()
                    .map(|&h| match s.get(h) {
                        Some(ChunkState::Present { frame, len, .. }) => Some((frame, len)),
                        _ => None,
                    })
                    .collect()
            })?;
            out.extend(states);
        }
        Ok(out)
    }

    /// Read one resident chunk's bytes into `buf` (fabric-charged).
    /// Returns `false` if the chunk is not resident.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is smaller than the chunk.
    pub fn read_chunk(&self, ctx: &NodeCtx, hash: u64, buf: &mut [u8]) -> Result<bool, SimError> {
        match self.lookup(ctx, &[hash])?[0] {
            Some((frame, len)) => {
                let len = len as usize;
                assert!(buf.len() >= len, "chunk buffer too small");
                ctx.invalidate(frame, len);
                ctx.read(frame, &mut buf[..len])?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Abort every in-flight claim held by `node` (crash recovery).
    /// Returns the number of claims reverted.
    ///
    /// # Errors
    ///
    /// Propagates index errors.
    pub fn abort_node(&self, ctx: &NodeCtx, node: NodeId) -> Result<u64, SimError> {
        let dead = node.0 as u32;
        let pending = self.cell.read(ctx, |s| s.fetching_of(dead))? as u64;
        if pending > 0 {
            self.cell.update(ctx, &abort_op(dead))?;
            self.stats
                .claims_aborted
                .fetch_add(pending, Ordering::Relaxed);
        }
        self.notify_fills();
        Ok(pending)
    }

    /// Replay the committed op log from scratch and compare the present
    /// map against the live state — the recovery-equivalence invariant.
    ///
    /// # Errors
    ///
    /// Propagates log read errors.
    pub fn replay_matches(&self, ctx: &NodeCtx) -> Result<bool, SimError> {
        let (replayed, _) = self.cell.replay(ctx, ChunkIndexState::default())?;
        Ok(self.cell.peek(|s| s.present_snapshot()) == replayed.present_snapshot())
    }

    /// Advance the op log head past fully-applied entries.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn gc(&self, ctx: &NodeCtx) -> Result<(), SimError> {
        self.cell.gc(ctx)
    }
}

impl SyncRecover for ChunkStore {
    fn cell_name(&self) -> &'static str {
        self.cell.name()
    }

    fn recover_after_crash(&self, ctx: &NodeCtx, crashed: NodeId) -> Result<bool, SimError> {
        let reelected = self.cell.recover_after_crash(ctx, crashed)?;
        let aborted = self.abort_node(ctx, crashed)?;
        Ok(reelected || aborted > 0)
    }
}

/// Whether `me`'s commit of `(hash, frame, _)` landed in `s`.
/// Authorship, not frame equality: identical content interns to the
/// same frame rack-wide, so only `by` distinguishes a landed commit
/// from one that lost to a recovery re-claim.
fn landed(s: &ChunkIndexState, me: u32, (hash, frame, _): (u64, GAddr, u32)) -> bool {
    matches!(
        s.get(hash),
        Some(ChunkState::Present { frame: f, by, .. }) if f == frame && by == me
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendConfig;
    use crate::{chunk_hash, CHUNK_SIZE};
    use flacos_mem::fault::FrameAllocator;
    use rack_sim::{Rack, RackConfig};

    fn chunk(seed: u64) -> Vec<u8> {
        let mut c = vec![0u8; CHUNK_SIZE];
        for (i, b) in c.iter_mut().enumerate() {
            *b = ((seed.wrapping_mul(31).wrapping_add(i as u64)) % 251) as u8;
        }
        c
    }

    fn setup(shards: usize) -> (Rack, Arc<ChunkStore>) {
        let (rack, store, _) = setup_with_frames(shards);
        (rack, store)
    }

    /// [`setup`], also handing back the deduper's frame allocator.
    fn setup_with_frames(shards: usize) -> (Rack, Arc<ChunkStore>, FrameAllocator) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(64 << 20));
        let backends = Arc::new(ShardedBackends::uniform(
            shards,
            BackendConfig {
                bandwidth_bytes_per_sec: 100_000_000,
                per_request_ns: 10_000,
                per_chunk_ns: 100,
            },
        ));
        let frames = FrameAllocator::new(rack.global().clone());
        let dedup = Arc::new(PageDeduper::new(frames.clone()));
        let store = ChunkStore::alloc(
            rack.global(),
            backends,
            dedup,
            StoreConfig::new(rack.node_count())
                .with_log(512, 2048)
                .with_claim_batch(64),
        )
        .unwrap();
        (rack, store, frames)
    }

    fn publish(store: &ChunkStore, seeds: std::ops::Range<u64>) -> Vec<u64> {
        seeds
            .map(|s| {
                let data = chunk(s);
                let h = chunk_hash(&data);
                store.backends().publish(data);
                h
            })
            .collect()
    }

    #[test]
    fn ensure_fetches_once_then_hits() {
        let (rack, store) = setup(4);
        let hashes = publish(&store, 0..100);
        let n0 = rack.node(0);
        let rep = store.ensure(&n0, &hashes).unwrap();
        assert_eq!(rep.fetched, 100);
        assert_eq!(rep.bytes_fetched, 100 * CHUNK_SIZE as u64);
        assert_eq!(rep.rack_hits, 0);

        // Second node: everything is a rack hit, nothing re-downloads.
        let n1 = rack.node(1);
        let rep2 = store.ensure(&n1, &hashes).unwrap();
        assert_eq!(rep2.fetched, 0);
        assert_eq!(rep2.rack_hits, 100);
        assert_eq!(store.backends().total_stats().chunks_shipped, 100);
        for &h in &hashes {
            assert_eq!(
                store.backends().fetch_count(h),
                1,
                "chunk fetched exactly once"
            );
        }
    }

    #[test]
    fn duplicate_hashes_in_one_request_are_served_once() {
        let (rack, store) = setup(2);
        let hashes = publish(&store, 0..10);
        let mut req = hashes.clone();
        req.extend_from_slice(&hashes);
        let rep = store.ensure(&rack.node(0), &req).unwrap();
        assert_eq!(rep.requested, 20);
        assert_eq!(rep.duplicates, 10);
        assert_eq!(rep.fetched, 10);
    }

    #[test]
    fn identical_content_across_names_interns_one_frame() {
        let (rack, store) = setup(2);
        // Two "images" sharing 5 of their 10 chunks.
        let a = publish(&store, 0..10);
        let b = publish(&store, 5..15);
        let n0 = rack.node(0);
        store.ensure(&n0, &a).unwrap();
        store.ensure(&n0, &b).unwrap();
        // 15 distinct chunks → 15 frames; the 5 shared ones dedup by
        // having the same hash (same chunk), not by luck.
        assert_eq!(store.dedup().stats().unique_frames, 15);
        assert_eq!(store.backends().total_stats().chunks_shipped, 15);
        assert_eq!(b[..5], a[5..], "overlapping seeds share hashes");
    }

    #[test]
    fn a_corrupt_blob_in_any_lane_fails_its_whole_batch() {
        // Nine chunks in one claim batch: two four-lane groups and a
        // remainder of one. A corrupt blob at any of the nine positions
        // must fail `complete` before anything of the batch is interned
        // or committed.
        for bad in 0..9 {
            let (rack, store) = setup(2);
            let hashes = publish(&store, 0..9);
            store.backends().corrupt(hashes[bad], 17 + bad);
            let n0 = rack.node(0);
            let claim = store.claim(&n0, &hashes).unwrap();
            assert_eq!(claim.won, hashes);
            let err = store.complete(&n0, &claim.won).unwrap_err();
            let want = format!(
                "backend shipped corrupt bytes for chunk {:#018x}",
                hashes[bad]
            );
            assert!(
                matches!(&err, SimError::Protocol(m) if *m == want),
                "position {bad}: {err:?}"
            );
            assert_eq!(store.peek_index(|s| s.present_count()), 0, "position {bad}");
            assert_eq!(store.peek_index(|s| s.fetching_of(0)), 0, "position {bad}");
            assert_eq!(store.dedup().stats().unique_frames, 0, "position {bad}");
            assert_eq!(store.stats().chunks_fetched, 0, "position {bad}");
            assert_claims_released(&rack, &store, &hashes);
        }
    }

    /// After node 0's failed `complete`, it holds no claim, and node 1
    /// wins every one of `hashes` (none is left `in_flight` to wait on).
    fn assert_claims_released(rack: &Rack, store: &ChunkStore, hashes: &[u64]) {
        assert_eq!(store.peek_index(|s| s.fetching_of(0)), 0);
        let retry = store.claim(&rack.node(1), hashes).unwrap();
        assert_eq!(retry.won, hashes);
        assert!(retry.in_flight.is_empty());
    }

    #[test]
    fn a_failed_intern_releases_the_frames_its_batch_interned() {
        // Five frames left in the pool: the nine-chunk batch interns
        // five, fails on the sixth, and must hand the five back.
        let (rack, store, frames) = setup_with_frames(2);
        let hashes = publish(&store, 0..9);
        let n0 = rack.node(0);
        let claim = store.claim(&n0, &hashes).unwrap();
        let mut held = Vec::new();
        while let Ok(frame) = frames.alloc(&n0) {
            held.push(frame);
        }
        for frame in held.drain(..5) {
            frames.free(&n0, frame);
        }
        assert!(store.complete(&n0, &claim.won).is_err());
        assert_eq!(store.dedup().stats().unique_frames, 0);
        assert_eq!(frames.free_frames(), 5);
        assert_eq!(store.peek_index(|s| s.present_count()), 0);
        assert_claims_released(&rack, &store, &hashes);
    }

    #[test]
    fn unknown_chunk_propagates_a_protocol_error() {
        let (rack, store) = setup(2);
        assert!(store.ensure(&rack.node(0), &[0xdead_beef]).is_err());
        assert_claims_released(&rack, &store, &[0xdead_beef]);
    }

    #[test]
    fn crashed_fetcher_claims_are_aborted_and_retaken() {
        let (rack, store) = setup(2);
        let hashes = publish(&store, 0..20);
        let n0 = rack.node(0);
        let n1 = rack.node(1);

        // Node 0 claims everything, then "crashes" before completing.
        let claim = store.claim(&n0, &hashes).unwrap();
        assert_eq!(claim.won.len(), 20);
        assert_eq!(store.peek_index(|s| s.fetching_of(0)), 20);

        // Recovery (as the orchestrator would drive it via SyncRecover).
        let recovered = store.recover_after_crash(&n1, rack_sim::NodeId(0)).unwrap();
        assert!(recovered);
        assert_eq!(store.peek_index(|s| s.fetching_count()), 0);

        // The survivor finishes the start; nothing is fetched twice.
        let rep = store.ensure(&n1, &hashes).unwrap();
        assert_eq!(rep.fetched, 20);
        for &h in &hashes {
            assert_eq!(store.backends().fetch_count(h), 1);
        }
        assert!(store.replay_matches(&n1).unwrap());
    }

    #[test]
    fn late_commit_after_abort_releases_the_duplicate_frame() {
        let (rack, store) = setup(2);
        let hashes = publish(&store, 0..4);
        let n0 = rack.node(0);
        let n1 = rack.node(1);

        let claim = store.claim(&n0, &hashes).unwrap();
        assert_eq!(claim.won.len(), 4);
        // Recovery decides node 0 is dead; node 1 re-claims and commits.
        store.abort_node(&n1, rack_sim::NodeId(0)).unwrap();
        store.ensure(&n1, &hashes).unwrap();
        let frames_before = store.dedup().stats().unique_frames;

        // Node 0 was merely slow, not dead: its complete() now loses.
        let done = store.complete(&n0, &claim.won).unwrap();
        assert_eq!(done.committed, 0);
        assert_eq!(done.lost.len(), 4);
        assert_eq!(store.stats().commits_lost, 4);
        assert_eq!(
            store.dedup().stats().unique_frames,
            frames_before,
            "lost commits release their interned frames"
        );
        assert!(store.replay_matches(&n0).unwrap());
    }

    #[test]
    fn concurrent_starters_single_flight_each_chunk() {
        let (rack, store) = setup(4);
        let hashes = publish(&store, 0..200);
        let n0 = rack.node(0);
        let n1 = rack.node(1);
        let (s0, s1) = (store.clone(), store.clone());
        let (h0, h1) = (hashes.clone(), hashes.clone());
        let t0 = std::thread::spawn(move || s0.ensure(&n0, &h0).unwrap());
        let t1 = std::thread::spawn(move || s1.ensure(&n1, &h1).unwrap());
        let r0 = t0.join().unwrap();
        let r1 = t1.join().unwrap();

        // Each chunk was downloaded exactly once, rack-wide, no matter
        // how the two starters interleaved.
        for &h in &hashes {
            assert_eq!(store.backends().fetch_count(h), 1, "single-flight per hash");
        }
        assert_eq!(r0.fetched + r1.fetched, 200);
        assert_eq!(
            r0.rack_hits + r0.coalesced + r1.rack_hits + r1.coalesced,
            200,
            "the loser of each race is served without a download"
        );
        assert_eq!(store.peek_index(|s| s.present_count()), 200);
        assert!(store.replay_matches(&rack.node(0)).unwrap());
    }
}
