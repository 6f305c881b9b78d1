//! Sharded chunk backends: N simulated registry/peer stores, routed by
//! content hash.
//!
//! Each shard owns the chunks whose hash lands on it (`hash % shards`)
//! and has its own bandwidth and per-request cost, like N independent
//! registry mirrors or peer stores. A batched fetch splits the request
//! by shard and charges the **max** per-shard time — the shards stream
//! their partitions concurrently — so cold-start fetch time shrinks as
//! shards are added (until per-request overhead dominates).
//!
//! The backends are *outside* the rack: their costs are simulated time,
//! their bytes are real (published blobs, hash-verified by the caller).
//! Stats are relaxed atomics — the fetch path never takes a lock to
//! count traffic.

use crate::{chunk_hash_each, CHUNK_SIZE};
use rack_sim::{NodeCtx, SimError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cost parameters for one backend shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// Shard transfer bandwidth, bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed overhead per batched request to this shard, ns.
    pub per_request_ns: u64,
    /// Per-chunk lookup/framing overhead, ns.
    pub per_chunk_ns: u64,
}

impl BackendConfig {
    /// Calibrated so that the *aggregate* bandwidth of `shards` shards
    /// equals the paper's single-registry 285 MB/s (divided by `scale`
    /// for size-scaled images): the paper's 21 s cold start decomposes
    /// identically, the shards just serve it in parallel slices.
    pub fn paper_calibrated(shards: usize, scale: u64) -> Self {
        BackendConfig {
            bandwidth_bytes_per_sec: (285_000_000 / shards.max(1) as u64 / scale.max(1)).max(1),
            per_request_ns: 30_000_000, // 30 ms per batched request (per blob request)
            per_chunk_ns: 1_000,
        }
    }

    /// Time for this shard to serve one batched request of
    /// `chunks` chunks totalling `bytes` bytes.
    fn batch_ns(&self, chunks: u64, bytes: u64) -> u64 {
        self.per_request_ns
            .saturating_add(self.per_chunk_ns.saturating_mul(chunks))
            .saturating_add(
                bytes.saturating_mul(1_000_000_000) / self.bandwidth_bytes_per_sec.max(1),
            )
    }
}

/// Per-shard traffic counters (a snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Batched requests served.
    pub requests: u64,
    /// Chunks shipped.
    pub chunks_shipped: u64,
    /// Bytes shipped.
    pub bytes_shipped: u64,
}

#[derive(Debug)]
struct Blob {
    data: Arc<Vec<u8>>,
    /// Times this chunk has been shipped (the no-duplicate-download
    /// invariant in the storm campaign reads this).
    fetches: u64,
}

#[derive(Debug)]
struct Shard {
    config: BackendConfig,
    #[expect(
        clippy::disallowed_types,
        reason = "host-side model of a remote backend's blob map, not rack state; all \
                  rack-visible cost is charged via `ctx`"
    )]
    blobs: rack_sim::sync::Mutex<HashMap<u64, Blob>>,
    requests: AtomicU64,
    chunks_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
}

/// N backend shards routed by `hash % N`.
#[derive(Debug)]
pub struct ShardedBackends {
    shards: Vec<Shard>,
}

impl ShardedBackends {
    /// Backends with per-shard configs (one shard per entry).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<BackendConfig>) -> Self {
        assert!(!configs.is_empty(), "need at least one backend shard");
        ShardedBackends {
            shards: configs
                .into_iter()
                .map(|config| Shard {
                    config,
                    blobs: Default::default(),
                    requests: AtomicU64::new(0),
                    chunks_shipped: AtomicU64::new(0),
                    bytes_shipped: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// `shards` identical shards.
    pub fn uniform(shards: usize, config: BackendConfig) -> Self {
        Self::new(vec![config; shards.max(1)])
    }

    /// The shard owning `hash`. The raw fnv1a value is passed through a
    /// murmur3-style finalizer first: fnv1a's low bits are weak (bit 0
    /// is a parity over the input bytes, which is *constant* for any
    /// even-length constant-fill chunk), so a bare `hash % N` would
    /// collapse structured content onto one shard and serialize the
    /// whole fan-out.
    pub fn shard_of(&self, hash: u64) -> usize {
        let mut h = hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % self.shards.len() as u64) as usize
    }

    /// Publish a chunk to its shard (host-side seeding — the "registry
    /// upload" happens outside the simulated rack). Returns `false` if
    /// the shard already held it.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one chunk.
    pub fn publish(&self, data: Vec<u8>) -> bool {
        self.publish_many(vec![data]) == 1
    }

    /// Publish a batch of chunks, each to its shard, as
    /// [`ShardedBackends::publish`] does one: every chunk is named by
    /// the hash of its bytes, computed here four lanes at a time
    /// ([`chunk_hash_each`]). Returns how many chunks were new.
    ///
    /// # Panics
    ///
    /// Panics if any chunk is not exactly one chunk long.
    pub fn publish_many(&self, chunks: Vec<Vec<u8>>) -> u64 {
        assert!(
            chunks.iter().all(|c| c.len() == CHUNK_SIZE),
            "chunks are page-sized"
        );
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        let hashes = chunk_hash_each(&refs);
        let mut published = 0;
        for (hash, data) in hashes.into_iter().zip(chunks) {
            let shard = &self.shards[self.shard_of(hash)];
            let mut blobs = shard.blobs.lock();
            if let std::collections::hash_map::Entry::Vacant(slot) = blobs.entry(hash) {
                slot.insert(Blob {
                    data: Arc::new(data),
                    fetches: 0,
                });
                published += 1;
            }
        }
        published
    }

    /// Flip one bit of byte `at` of the stored blob `hash`, so that the
    /// next fetch ships bytes that no longer match their name.
    #[cfg(test)]
    pub(crate) fn corrupt(&self, hash: u64, at: usize) {
        let mut blobs = self.shards[self.shard_of(hash)].blobs.lock();
        let blob = blobs.get_mut(&hash).expect("corrupting a published chunk");
        Arc::make_mut(&mut blob.data)[at] ^= 1;
    }

    /// Whether some shard holds `hash`.
    pub fn contains(&self, hash: u64) -> bool {
        self.shards[self.shard_of(hash)]
            .blobs
            .lock()
            .contains_key(&hash)
    }

    /// Times `hash` has been shipped (0 if never / unknown).
    pub fn fetch_count(&self, hash: u64) -> u64 {
        self.shards[self.shard_of(hash)]
            .blobs
            .lock()
            .get(&hash)
            .map(|b| b.fetches)
            .unwrap_or(0)
    }

    /// Fetch a batch of chunks, fanning out across shards in parallel:
    /// the batch is split by `hash % shards`, each shard charges its own
    /// request + transfer time, and the caller pays the **max** (the
    /// slowest shard), not the sum.
    ///
    /// Returns the blobs in request order.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if any hash is unknown to its shard
    /// (nothing is charged or counted in that case).
    pub fn fetch_many(&self, ctx: &NodeCtx, hashes: &[u64]) -> Result<Vec<Arc<Vec<u8>>>, SimError> {
        if hashes.is_empty() {
            return Ok(Vec::new());
        }
        // Resolve every blob first so an unknown hash charges (and
        // counts) nothing.
        let mut out = Vec::with_capacity(hashes.len());
        let mut per_shard: Vec<(u64, u64)> = vec![(0, 0); self.shards.len()]; // (chunks, bytes)
        for &hash in hashes {
            let si = self.shard_of(hash);
            let data = self.shards[si]
                .blobs
                .lock()
                .get(&hash)
                .map(|b| b.data.clone())
                .ok_or_else(|| {
                    SimError::Protocol(format!("chunk {hash:#018x} not on backend shard {si}"))
                })?;
            per_shard[si].0 += 1;
            per_shard[si].1 += data.len() as u64;
            out.push(data);
        }
        for &hash in hashes {
            if let Some(blob) = self.shards[self.shard_of(hash)].blobs.lock().get_mut(&hash) {
                blob.fetches += 1;
            }
        }
        let mut slowest = 0u64;
        for (si, &(chunks, bytes)) in per_shard.iter().enumerate() {
            if chunks == 0 {
                continue;
            }
            let shard = &self.shards[si];
            slowest = slowest.max(shard.config.batch_ns(chunks, bytes));
            shard.requests.fetch_add(1, Ordering::Relaxed);
            shard.chunks_shipped.fetch_add(chunks, Ordering::Relaxed);
            shard.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
        }
        ctx.charge(slowest);
        Ok(out)
    }

    /// Per-shard traffic snapshots.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                requests: s.requests.load(Ordering::Relaxed),
                chunks_shipped: s.chunks_shipped.load(Ordering::Relaxed),
                bytes_shipped: s.bytes_shipped.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Sum of all shards' counters.
    pub fn total_stats(&self) -> ShardStats {
        self.stats()
            .iter()
            .fold(ShardStats::default(), |acc, s| ShardStats {
                requests: acc.requests + s.requests,
                chunks_shipped: acc.chunks_shipped + s.chunks_shipped,
                bytes_shipped: acc.bytes_shipped + s.bytes_shipped,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk_hash;
    use rack_sim::{Rack, RackConfig};

    fn chunk(fill: u8) -> Vec<u8> {
        vec![fill; CHUNK_SIZE]
    }

    #[test]
    fn publish_routes_by_hash_and_dedups() {
        let be = ShardedBackends::uniform(4, BackendConfig::paper_calibrated(4, 64));
        let data = chunk(1);
        let hash = chunk_hash(&data);
        assert!(be.publish(data.clone()));
        assert!(!be.publish(data), "second publish is a no-op");
        assert!(be.contains(hash));
        assert!(be.shard_of(hash) < 4);
    }

    #[test]
    fn router_spreads_constant_fill_chunks() {
        // fnv1a bit 0 is a parity over the input, constant for any
        // even-length constant-fill chunk — the finalizer in `shard_of`
        // must still spread these across shards.
        let be = ShardedBackends::uniform(4, BackendConfig::paper_calibrated(4, 64));
        let mut used = [false; 4];
        for fill in 0..32u8 {
            used[be.shard_of(chunk_hash(&chunk(fill)))] = true;
        }
        assert!(
            used.iter().filter(|&&u| u).count() >= 3,
            "32 constant-fill chunks landed on {used:?}"
        );
    }

    #[test]
    fn parallel_shards_beat_one_shard_on_the_same_bytes() {
        let rack = Rack::new(RackConfig::small_test());
        let cfg = BackendConfig {
            bandwidth_bytes_per_sec: 1_000_000,
            per_request_ns: 1_000,
            per_chunk_ns: 0,
        };
        let chunks: Vec<Vec<u8>> = (0..32u8).map(chunk).collect();
        let hashes: Vec<u64> = chunks.iter().map(|c| chunk_hash(c)).collect();

        let mut elapsed = Vec::new();
        for shards in [1usize, 4] {
            let be = ShardedBackends::uniform(shards, cfg);
            for c in &chunks {
                be.publish(c.clone());
            }
            let node = rack.node(0);
            let t0 = node.clock().now();
            let got = be.fetch_many(&node, &hashes).unwrap();
            elapsed.push(node.clock().now() - t0);
            assert_eq!(got.len(), 32);
            assert_eq!(*got[3], chunks[3], "blobs come back in request order");
        }
        assert!(
            elapsed[1] * 2 < elapsed[0],
            "4 shards at fixed per-shard bandwidth should serve 32 chunks \
             at least 2x faster than 1 shard ({} vs {} ns)",
            elapsed[1],
            elapsed[0]
        );
    }

    #[test]
    fn unknown_hash_fails_without_charging() {
        let rack = Rack::new(RackConfig::small_test());
        let be = ShardedBackends::uniform(2, BackendConfig::paper_calibrated(2, 1));
        let node = rack.node(0);
        let t0 = node.clock().now();
        assert!(be.fetch_many(&node, &[0xdead]).is_err());
        assert_eq!(node.clock().now(), t0, "failed fetch charges nothing");
        assert_eq!(be.total_stats().requests, 0);
    }

    #[test]
    fn fetch_counts_and_stats_account_bytes() {
        let rack = Rack::new(RackConfig::small_test());
        let be = ShardedBackends::uniform(3, BackendConfig::paper_calibrated(3, 1));
        let data = chunk(9);
        let hash = chunk_hash(&data);
        be.publish(data);
        let node = rack.node(0);
        be.fetch_many(&node, &[hash]).unwrap();
        be.fetch_many(&node, &[hash]).unwrap();
        assert_eq!(be.fetch_count(hash), 2);
        let total = be.total_stats();
        assert_eq!(total.chunks_shipped, 2);
        assert_eq!(total.bytes_shipped, 2 * CHUNK_SIZE as u64);
    }
}
