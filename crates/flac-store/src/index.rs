//! The rack-wide chunk index: a deterministic [`SyncState`] machine.
//!
//! The index maps `content hash → ChunkState` and is driven entirely by
//! three wire-encoded operations committed to the [`SyncCell`]'s shared
//! op log (log order = linearization order):
//!
//! * `CLAIM(node, hashes…)` — each absent hash becomes
//!   `Fetching(node)`; hashes already claimed or present are untouched.
//!   The *first* claim in log order wins: that is the whole
//!   single-flight protocol. A claimer learns its wins from the post-op
//!   state, not from any side channel.
//! * `COMMIT(node, (hash, frame, len)…)` — a hash in `Fetching(node)`
//!   (or absent, for a late commit after recovery re-claimed and the
//!   entry cycled) becomes `Present(frame, len)`. A commit against a
//!   hash someone else now owns is **ignored** — the stale fetcher lost
//!   and must release its frame.
//! * `ABORT(node)` — every `Fetching(node)` entry reverts to absent;
//!   this is what crash recovery appends when `node` dies mid-fetch, so
//!   survivors can re-claim and finish the download.
//!
//! Each node's in-flight claims are also kept as a set beside the map,
//! maintained by the same three ops, so `ABORT` and the fetching counts
//! cost the claims they touch rather than a scan of every chunk the
//! rack has ever indexed.
//!
//! `apply` is a pure function of `(state, op)` and ignores malformed
//! ops, so replaying the committed log from an empty index on any node
//! reproduces the same map — the recovery/replay property every
//! `SyncCell` structure shares.
//!
//! [`SyncCell`]: flacdk::sync::SyncCell
//! [`SyncState`]: flacdk::sync::SyncState

use flacdk::sync::SyncState;
use flacdk::wire::{Decoder, Encoder};
use rack_sim::GAddr;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Op tag: claim hashes for one fetcher.
pub const OP_CLAIM: u8 = 1;
/// Op tag: commit fetched chunks as present.
pub const OP_COMMIT: u8 = 2;
/// Op tag: abort all of one node's in-flight claims.
pub const OP_ABORT: u8 = 3;

/// Where one chunk stands, rack-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkState {
    /// Claimed by `node`; the fetch is in flight.
    Fetching {
        /// The claiming node.
        node: u32,
    },
    /// Resident in global memory at `frame`.
    Present {
        /// The deduped global frame holding the bytes.
        frame: GAddr,
        /// Chunk length in bytes.
        len: u32,
        /// The node whose commit landed. Identical content interns to
        /// the *same* frame on every node, so frame equality cannot
        /// tell a landed commit from a lost one — authorship can.
        by: u32,
    },
}

/// The chunk index state machine (see module docs for the op set).
#[derive(Debug, Default, Clone)]
pub struct ChunkIndexState {
    chunks: HashMap<u64, ChunkState>,
    /// Per node, the hashes `chunks` holds as `Fetching { node }`.
    claims: HashMap<u32, HashSet<u64>>,
    /// Chunks ever committed present.
    pub committed_chunks: u64,
    /// Bytes ever committed present.
    pub committed_bytes: u64,
    /// In-flight claims reverted by `ABORT` ops.
    pub aborted_claims: u64,
    /// Ops ignored as stale or malformed (late commits, replays).
    pub ignored_ops: u64,
}

impl ChunkIndexState {
    /// State of `hash`, if any.
    pub fn get(&self, hash: u64) -> Option<ChunkState> {
        self.chunks.get(&hash).copied()
    }

    /// Number of present chunks.
    pub fn present_count(&self) -> usize {
        self.chunks
            .values()
            .filter(|s| matches!(s, ChunkState::Present { .. }))
            .count()
    }

    /// Number of in-flight claims (rack-wide).
    pub fn fetching_count(&self) -> usize {
        self.claims.values().map(HashSet::len).sum()
    }

    /// Number of in-flight claims held by `node`.
    pub fn fetching_of(&self, node: u32) -> usize {
        self.claims.get(&node).map_or(0, HashSet::len)
    }

    /// Deterministically ordered snapshot of the present chunks
    /// (`hash → (frame, len, committer)`), for replay-equivalence
    /// checks.
    pub fn present_snapshot(&self) -> BTreeMap<u64, (u64, u32, u32)> {
        self.chunks
            .iter()
            .filter_map(|(h, s)| match s {
                ChunkState::Present { frame, len, by } => Some((*h, (frame.0, *len, *by))),
                ChunkState::Fetching { .. } => None,
            })
            .collect()
    }

    fn apply_decoded(&mut self, op: &[u8]) -> Option<()> {
        let mut d = Decoder::new(op);
        match d.u8().ok()? {
            OP_CLAIM => {
                let node = d.u32().ok()?;
                let count = d.u32().ok()?;
                for _ in 0..count {
                    let hash = d.u64().ok()?;
                    if let Entry::Vacant(slot) = self.chunks.entry(hash) {
                        slot.insert(ChunkState::Fetching { node });
                        self.claims.entry(node).or_default().insert(hash);
                    }
                }
            }
            OP_COMMIT => {
                let node = d.u32().ok()?;
                let count = d.u32().ok()?;
                for _ in 0..count {
                    let hash = d.u64().ok()?;
                    let frame = GAddr(d.u64().ok()?);
                    let len = d.u32().ok()?;
                    let lands = match self.chunks.get(&hash) {
                        None => true,
                        Some(ChunkState::Fetching { node: n }) => *n == node,
                        Some(ChunkState::Present { .. }) => false,
                    };
                    if lands {
                        if let Some(claims) = self.claims.get_mut(&node) {
                            claims.remove(&hash);
                        }
                        self.chunks.insert(
                            hash,
                            ChunkState::Present {
                                frame,
                                len,
                                by: node,
                            },
                        );
                        self.committed_chunks += 1;
                        self.committed_bytes += u64::from(len);
                    } else {
                        self.ignored_ops += 1;
                    }
                }
            }
            OP_ABORT => {
                let node = d.u32().ok()?;
                let claims = self.claims.remove(&node).unwrap_or_default();
                for hash in &claims {
                    self.chunks.remove(hash);
                }
                self.aborted_claims += claims.len() as u64;
            }
            _ => self.ignored_ops += 1,
        }
        Some(())
    }
}

impl SyncState for ChunkIndexState {
    fn apply(&mut self, op: &[u8]) {
        if self.apply_decoded(op).is_none() {
            self.ignored_ops += 1;
        }
    }
}

/// Encode a `CLAIM` op.
///
/// # Panics
///
/// Panics if `hashes` exceeds `u32::MAX` entries.
pub fn claim_op(node: u32, hashes: &[u64]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(OP_CLAIM)
        .put_u32(node)
        .put_u32(u32::try_from(hashes.len()).expect("claim batch fits u32"));
    for &h in hashes {
        e.put_u64(h);
    }
    e.into_vec()
}

/// Encode a `COMMIT` op over `(hash, frame, len)` entries.
///
/// # Panics
///
/// Panics if `entries` exceeds `u32::MAX` entries.
pub fn commit_op(node: u32, entries: &[(u64, GAddr, u32)]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(OP_COMMIT)
        .put_u32(node)
        .put_u32(u32::try_from(entries.len()).expect("commit batch fits u32"));
    for &(hash, frame, len) in entries {
        e.put_u64(hash).put_u64(frame.0).put_u32(len);
    }
    e.into_vec()
}

/// Encode an `ABORT` op for all of `node`'s claims.
pub fn abort_op(node: u32) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(OP_ABORT).put_u32(node);
    e.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_all(state: &mut ChunkIndexState, ops: &[Vec<u8>]) {
        for op in ops {
            state.apply(op);
        }
    }

    #[test]
    fn first_claim_in_log_order_wins() {
        let mut s = ChunkIndexState::default();
        apply_all(&mut s, &[claim_op(0, &[10, 11]), claim_op(1, &[11, 12])]);
        assert_eq!(s.get(10), Some(ChunkState::Fetching { node: 0 }));
        assert_eq!(
            s.get(11),
            Some(ChunkState::Fetching { node: 0 }),
            "node 0 claimed first"
        );
        assert_eq!(s.get(12), Some(ChunkState::Fetching { node: 1 }));
        assert_eq!(s.fetching_of(0), 2);
        assert_eq!(s.fetching_of(1), 1);
    }

    #[test]
    fn commit_lands_only_for_the_claim_holder() {
        let mut s = ChunkIndexState::default();
        apply_all(
            &mut s,
            &[
                claim_op(0, &[10]),
                commit_op(1, &[(10, GAddr(0x1000), 4096)]), // stale: node 1 never claimed
                commit_op(0, &[(10, GAddr(0x2000), 4096)]),
            ],
        );
        assert_eq!(
            s.get(10),
            Some(ChunkState::Present {
                frame: GAddr(0x2000),
                len: 4096,
                by: 0
            })
        );
        assert_eq!(s.committed_chunks, 1);
        assert_eq!(s.committed_bytes, 4096);
        assert_eq!(s.ignored_ops, 1, "the stale commit was ignored");
    }

    #[test]
    fn abort_reverts_only_the_dead_nodes_claims() {
        let mut s = ChunkIndexState::default();
        apply_all(
            &mut s,
            &[
                claim_op(0, &[10]),
                claim_op(1, &[11]),
                commit_op(1, &[(11, GAddr(0x3000), 4096)]),
                abort_op(0),
            ],
        );
        assert_eq!(s.get(10), None, "dead node's claim reverted");
        assert!(matches!(s.get(11), Some(ChunkState::Present { .. })));
        assert_eq!(s.aborted_claims, 1);
        // A survivor can now re-claim and commit.
        apply_all(
            &mut s,
            &[
                claim_op(1, &[10]),
                commit_op(1, &[(10, GAddr(0x4000), 4096)]),
            ],
        );
        assert!(matches!(s.get(10), Some(ChunkState::Present { .. })));
        assert_eq!(s.fetching_count(), 0);
    }

    #[test]
    fn replay_reproduces_the_same_state() {
        let ops = vec![
            claim_op(0, &[1, 2, 3]),
            commit_op(0, &[(1, GAddr(0x1000), 4096), (2, GAddr(0x2000), 4096)]),
            abort_op(0),
            claim_op(1, &[3]),
            commit_op(1, &[(3, GAddr(0x3000), 4096)]),
        ];
        let mut a = ChunkIndexState::default();
        let mut b = ChunkIndexState::default();
        apply_all(&mut a, &ops);
        apply_all(&mut b, &ops);
        assert_eq!(a.present_snapshot(), b.present_snapshot());
        assert_eq!(a.present_snapshot().len(), 3);
        assert_eq!(a.fetching_count(), 0);
    }

    #[test]
    fn malformed_ops_are_ignored_not_fatal() {
        let mut s = ChunkIndexState::default();
        s.apply(&[]);
        s.apply(&[99, 1, 2, 3]);
        s.apply(&claim_op(0, &[5])[..3]); // truncated
        assert_eq!(s.ignored_ops, 3);
        assert_eq!(s.present_count(), 0);
    }
}
