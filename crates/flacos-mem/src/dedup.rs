//! Content-based page deduplication.
//!
//! Paper §3.4 motivates the shared page cache with cross-node data
//! duplication ("a large number of identical container images need to be
//! stored between nodes"). The deduper interns page contents by hash:
//! identical pages map to a single global frame with a reference count.
//! Hash collisions are handled by verifying full content before sharing.

use crate::addr::PAGE_SIZE;
use crate::fault::FrameAllocator;
use flacdk::wire::fnv1a;
use rack_sim::{GAddr, NodeCtx, SimError};
use std::collections::HashMap;

/// Dedup effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Pages interned in total.
    pub interned: u64,
    /// Interns that matched an existing frame.
    pub dedup_hits: u64,
    /// Bytes saved by sharing instead of copying.
    pub bytes_saved: u64,
    /// Distinct frames currently live.
    pub unique_frames: u64,
}

#[derive(Debug, Default)]
struct Inner {
    by_hash: HashMap<u64, Vec<GAddr>>,
    refcount: HashMap<GAddr, u64>,
    hash_of: HashMap<GAddr, u64>,
    stats: DedupStats,
}

/// Interns identical page contents into shared frames.
#[derive(Debug)]
pub struct PageDeduper {
    frames: FrameAllocator,
    #[expect(
        clippy::disallowed_types,
        reason = "content-hash index over frames in global memory; every intern/release \
                  charges the fabric for the frame bytes, and the index is rebuildable \
                  from them"
    )]
    inner: rack_sim::sync::Mutex<Inner>,
}

impl PageDeduper {
    /// A deduper drawing frames from `frames`.
    pub fn new(frames: FrameAllocator) -> Self {
        PageDeduper {
            frames,
            inner: Default::default(),
        }
    }

    /// Intern one page of content. Returns the (possibly shared) frame
    /// holding it, with its reference count incremented.
    ///
    /// # Errors
    ///
    /// Propagates allocation/memory errors.
    ///
    /// # Panics
    ///
    /// Panics if `content` is not exactly one page.
    pub fn intern(&self, ctx: &NodeCtx, content: &[u8]) -> Result<GAddr, SimError> {
        self.intern_with_hash(ctx, fnv1a(content), content)
    }

    /// [`PageDeduper::intern`] for callers that already know the
    /// content hash (e.g. a content-addressed chunk store, where the
    /// hash *is* the chunk's name) — skips re-hashing the page.
    ///
    /// # Errors
    ///
    /// Propagates allocation/memory errors.
    ///
    /// # Panics
    ///
    /// Panics if `content` is not exactly one page, or (debug builds)
    /// if `hash` is not the content's fnv1a hash.
    pub fn intern_with_hash(
        &self,
        ctx: &NodeCtx,
        hash: u64,
        content: &[u8],
    ) -> Result<GAddr, SimError> {
        assert_eq!(content.len(), PAGE_SIZE, "dedup operates on whole pages");
        debug_assert_eq!(hash, fnv1a(content), "hash must name the content");

        // Candidate frames under this hash: verify content to be
        // collision-safe before sharing. The index lock is held across
        // the comparison, so a hit takes it once, and every candidate is
        // read through one buffer.
        let mut inner = self.inner.lock();
        if let Some(candidates) = inner.by_hash.get(&hash) {
            let mut existing = [0u8; PAGE_SIZE];
            let mut shared = None;
            for &cand in candidates {
                ctx.invalidate(cand, PAGE_SIZE);
                ctx.read(cand, &mut existing)?;
                if existing[..] == *content {
                    shared = Some(cand);
                    break;
                }
            }
            if let Some(cand) = shared {
                *inner.refcount.entry(cand).or_insert(0) += 1;
                inner.stats.interned += 1;
                inner.stats.dedup_hits += 1;
                inner.stats.bytes_saved += PAGE_SIZE as u64;
                return Ok(cand);
            }
        }
        drop(inner);

        // New content: allocate and publish a frame.
        let frame = self.frames.alloc(ctx)?;
        ctx.write(frame, content)?;
        ctx.writeback(frame, PAGE_SIZE);
        let mut inner = self.inner.lock();
        inner.by_hash.entry(hash).or_default().push(frame);
        inner.refcount.insert(frame, 1);
        inner.hash_of.insert(frame, hash);
        inner.stats.interned += 1;
        inner.stats.unique_frames += 1;
        Ok(frame)
    }

    /// Release one reference to `frame`; the frame is recycled when the
    /// count reaches zero.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if `frame` is not an interned frame.
    pub fn release(&self, ctx: &NodeCtx, frame: GAddr) -> Result<(), SimError> {
        let mut inner = self.inner.lock();
        let count = inner
            .refcount
            .get_mut(&frame)
            .ok_or_else(|| SimError::Protocol(format!("release of unknown frame {frame}")))?;
        *count -= 1;
        if *count == 0 {
            inner.refcount.remove(&frame);
            if let Some(hash) = inner.hash_of.remove(&frame) {
                if let Some(v) = inner.by_hash.get_mut(&hash) {
                    v.retain(|f| *f != frame);
                    if v.is_empty() {
                        inner.by_hash.remove(&hash);
                    }
                }
            }
            inner.stats.unique_frames -= 1;
            drop(inner);
            self.frames.free(ctx, frame);
        }
        Ok(())
    }

    /// Current reference count of `frame` (0 if unknown).
    pub fn refcount(&self, frame: GAddr) -> u64 {
        self.inner.lock().refcount.get(&frame).copied().unwrap_or(0)
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> DedupStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, PageDeduper) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let dedup = PageDeduper::new(FrameAllocator::new(rack.global().clone()));
        (rack, dedup)
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    #[test]
    fn identical_pages_share_one_frame() {
        let (rack, dedup) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let a = dedup.intern(&n0, &page(1)).unwrap();
        let b = dedup.intern(&n1, &page(1)).unwrap();
        assert_eq!(a, b);
        assert_eq!(dedup.refcount(a), 2);
        let s = dedup.stats();
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.bytes_saved, PAGE_SIZE as u64);
        assert_eq!(s.unique_frames, 1);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let (rack, dedup) = setup();
        let n0 = rack.node(0);
        let a = dedup.intern(&n0, &page(1)).unwrap();
        let b = dedup.intern(&n0, &page(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(dedup.stats().unique_frames, 2);
    }

    #[test]
    fn release_recycles_at_zero() {
        let (rack, dedup) = setup();
        let n0 = rack.node(0);
        let a = dedup.intern(&n0, &page(3)).unwrap();
        dedup.intern(&n0, &page(3)).unwrap();
        dedup.release(&n0, a).unwrap();
        assert_eq!(dedup.refcount(a), 1);
        dedup.release(&n0, a).unwrap();
        assert_eq!(dedup.refcount(a), 0);
        // Frame is recyclable; a fresh distinct page may reuse it.
        let b = dedup.intern(&n0, &page(4)).unwrap();
        assert_eq!(b, a, "freed frame reused");
        assert!(dedup.release(&n0, GAddr(0xdead000)).is_err());
    }

    #[test]
    fn intern_with_hash_shares_frames_with_intern() {
        let (rack, dedup) = setup();
        let n0 = rack.node(0);
        let content = page(7);
        let a = dedup.intern(&n0, &content).unwrap();
        let b = dedup
            .intern_with_hash(&n0, flacdk::wire::fnv1a(&content), &content)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(dedup.refcount(a), 2);
    }

    #[test]
    fn interned_content_is_readable_rack_wide() {
        let (rack, dedup) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let frame = dedup.intern(&n0, &page(9)).unwrap();
        n1.invalidate(frame, PAGE_SIZE);
        let mut buf = vec![0u8; PAGE_SIZE];
        n1.read(frame, &mut buf).unwrap();
        assert_eq!(buf, page(9));
    }
}
