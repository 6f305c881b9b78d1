//! Node-local VMA and reverse-map structures with bulk synchronization.
//!
//! Paper §3.3 "Local data structures": *"Memory management control
//! structures, such as rmap and VMA, are preserved within local memory of
//! each node, because these structures are not accessed frequently."*
//!
//! [`VmaSet`] is a plain node-local interval map. To keep peers loosely
//! consistent without per-update fabric traffic, a node periodically
//! exports its VMA set as one bulk blob into global memory
//! ([`VmaSet::export_bulk`]); peers import it wholesale
//! ([`VmaSet::import_bulk`]) — one publish + one consume instead of per-
//! mutation coherence.

use crate::addr::{PageSize, VirtAddr};
use flacdk::hw;
use flacdk::wire::{Decoder, Encoder};
use rack_sim::{GAddr, NodeCtx, SimError};
use std::collections::BTreeMap;

/// One virtual memory area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First address (inclusive).
    pub start: VirtAddr,
    /// One past the last address (exclusive).
    pub end: VirtAddr,
    /// Whether the area is writable.
    pub writable: bool,
    /// Caller tag (e.g. heap/stack/file id).
    pub tag: u64,
    /// Preferred translation granularity for this area, carried through
    /// the bulk export and import. Nothing reads it to decide a mapping:
    /// the tiering daemon works on page tables and never sees a `Vma`.
    pub page_size: PageSize,
}

impl Vma {
    /// Whether `va` falls inside this area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        self.start <= va && va < self.end
    }

    /// Area length in bytes.
    pub fn len(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Whether the area is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A node-local set of non-overlapping VMAs, keyed by start address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmaSet {
    areas: BTreeMap<u64, Vma>,
}

impl VmaSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `vma`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if it overlaps an existing area or is
    /// malformed (`end <= start`).
    pub fn insert(&mut self, vma: Vma) -> Result<(), SimError> {
        if vma.end.0 <= vma.start.0 {
            return Err(SimError::Protocol(format!("empty or inverted VMA {vma:?}")));
        }
        // Check the neighbour before and after for overlap.
        if let Some((_, prev)) = self.areas.range(..=vma.start.0).next_back() {
            if prev.end.0 > vma.start.0 {
                return Err(SimError::Protocol(format!("VMA {vma:?} overlaps {prev:?}")));
            }
        }
        if let Some((_, next)) = self.areas.range(vma.start.0..).next() {
            if next.start.0 < vma.end.0 {
                return Err(SimError::Protocol(format!("VMA {vma:?} overlaps {next:?}")));
            }
        }
        self.areas.insert(vma.start.0, vma);
        Ok(())
    }

    /// Remove the area starting at `start`.
    pub fn remove(&mut self, start: VirtAddr) -> Option<Vma> {
        self.areas.remove(&start.0)
    }

    /// Find the area containing `va`.
    pub fn find(&self, va: VirtAddr) -> Option<&Vma> {
        self.areas
            .range(..=va.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(va))
    }

    /// Number of areas.
    pub fn len(&self) -> usize {
        self.areas.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.areas.is_empty()
    }

    /// Iterate areas in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.areas.values()
    }

    /// Serialized size of this set in a bulk blob. Like
    /// [`VmaSet::export_bulk`], a test probe.
    pub fn bulk_size(&self) -> usize {
        8 + self.areas.len() * 27
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.areas.len() as u64);
        for v in self.areas.values() {
            e.put_u64(v.start.0)
                .put_u64(v.end.0)
                .put_u8(u8::from(v.writable))
                .put_u8(u8::from(v.page_size == PageSize::Huge))
                .put_u64(v.tag);
        }
        e.into_vec()
    }

    fn decode(buf: &[u8]) -> Result<Self, SimError> {
        let mut d = Decoder::new(buf);
        let n = d.u64().map_err(|e| SimError::Protocol(e.to_string()))?;
        let mut set = VmaSet::new();
        for _ in 0..n {
            let start = d.u64().map_err(|e| SimError::Protocol(e.to_string()))?;
            let end = d.u64().map_err(|e| SimError::Protocol(e.to_string()))?;
            let writable = d.u8().map_err(|e| SimError::Protocol(e.to_string()))? != 0;
            let huge = d.u8().map_err(|e| SimError::Protocol(e.to_string()))? != 0;
            let tag = d.u64().map_err(|e| SimError::Protocol(e.to_string()))?;
            set.insert(Vma {
                start: VirtAddr(start),
                end: VirtAddr(end),
                writable,
                tag,
                page_size: if huge { PageSize::Huge } else { PageSize::Base },
            })?;
        }
        Ok(set)
    }

    /// Bulk-publish this set into global memory at `blob`
    /// (`[len: u64][payload]`). One write-back covers the whole set.
    ///
    /// Test probe: no node OS publishes its VMA set yet, so only the
    /// `bulk_*` tests export and [`VmaSet::import_bulk`] it.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if the blob region is too small; memory
    /// errors are propagated.
    pub fn export_bulk(&self, ctx: &NodeCtx, blob: GAddr, blob_len: usize) -> Result<(), SimError> {
        let bytes = self.encode();
        if 8 + bytes.len() > blob_len {
            return Err(SimError::Protocol(format!(
                "VMA blob needs {} bytes, region holds {blob_len}",
                8 + bytes.len()
            )));
        }
        ctx.write_u64(blob, bytes.len() as u64)?;
        hw::publish_bytes(ctx, blob.offset(8), &bytes)?;
        ctx.writeback(blob, 8);
        Ok(())
    }

    /// Bulk-import a peer's set from global memory at `blob` (a test
    /// probe, like [`VmaSet::export_bulk`]).
    ///
    /// # Errors
    ///
    /// Propagates memory and decode errors.
    pub fn import_bulk(ctx: &NodeCtx, blob: GAddr) -> Result<Self, SimError> {
        ctx.invalidate(blob, 8);
        let len = ctx.read_u64(blob)? as usize;
        let mut bytes = vec![0u8; len];
        hw::consume_bytes(ctx, blob.offset(8), &mut bytes)?;
        Self::decode(&bytes)
    }
}

/// Node-local reverse map: physical frame key → set of (asid, vpn)
/// mappings pointing at it. Used for unmapping shared frames.
#[derive(Debug, Clone, Default)]
pub struct RMap {
    map: BTreeMap<u64, Vec<(u64, u64)>>,
}

impl RMap {
    /// An empty reverse map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `(asid, vpn)` maps frame `frame_key`.
    pub fn add(&mut self, frame_key: u64, asid: u64, vpn: u64) {
        let v = self.map.entry(frame_key).or_default();
        if !v.contains(&(asid, vpn)) {
            v.push((asid, vpn));
        }
    }

    /// Remove one mapping record.
    pub fn remove(&mut self, frame_key: u64, asid: u64, vpn: u64) {
        if let Some(v) = self.map.get_mut(&frame_key) {
            v.retain(|m| *m != (asid, vpn));
            if v.is_empty() {
                self.map.remove(&frame_key);
            }
        }
    }

    /// All mappings of `frame_key` (a test probe: nothing unmaps shared
    /// frames through the reverse map yet).
    pub fn mappers(&self, frame_key: u64) -> &[(u64, u64)] {
        self.map.get(&frame_key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tracked frames.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn vma(start: u64, end: u64, tag: u64) -> Vma {
        Vma {
            start: VirtAddr(start),
            end: VirtAddr(end),
            writable: true,
            tag,
            page_size: PageSize::Base,
        }
    }

    #[test]
    fn insert_find_remove() {
        let mut set = VmaSet::new();
        set.insert(vma(0x1000, 0x3000, 1)).unwrap();
        set.insert(vma(0x5000, 0x6000, 2)).unwrap();
        assert_eq!(set.find(VirtAddr(0x2000)).unwrap().tag, 1);
        assert_eq!(set.find(VirtAddr(0x3000)), None, "end exclusive");
        assert_eq!(set.find(VirtAddr(0x4000)), None, "gap");
        assert!(set.remove(VirtAddr(0x1000)).is_some());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn overlaps_rejected() {
        let mut set = VmaSet::new();
        set.insert(vma(0x1000, 0x3000, 1)).unwrap();
        assert!(set.insert(vma(0x2000, 0x4000, 2)).is_err(), "overlap right");
        assert!(set.insert(vma(0x0000, 0x1001, 2)).is_err(), "overlap left");
        assert!(set.insert(vma(0x1800, 0x2000, 2)).is_err(), "contained");
        assert!(set.insert(vma(0x3000, 0x3000, 2)).is_err(), "empty");
        set.insert(vma(0x3000, 0x4000, 3)).unwrap(); // adjacent is fine
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn bulk_sync_roundtrips_across_nodes() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let mut set = VmaSet::new();
        set.insert(vma(0x1000, 0x2000, 10)).unwrap();
        set.insert(vma(0x8000, 0xa000, 20)).unwrap();
        set.insert(Vma {
            page_size: PageSize::Huge,
            ..vma(0x20_0000, 0x60_0000, 30)
        })
        .unwrap();

        let blob = rack.global().alloc(set.bulk_size() + 64, 64).unwrap();
        // Warm n1's stale cache of the blob region first.
        let _ = VmaSet::import_bulk(&n1, blob);
        set.export_bulk(&n0, blob, set.bulk_size() + 64).unwrap();
        let imported = VmaSet::import_bulk(&n1, blob).unwrap();
        assert_eq!(imported, set);
    }

    #[test]
    fn bulk_export_checks_region_size() {
        let rack = Rack::new(RackConfig::small_test());
        let n0 = rack.node(0);
        let mut set = VmaSet::new();
        set.insert(vma(0x1000, 0x2000, 1)).unwrap();
        let blob = rack.global().alloc(16, 64).unwrap();
        assert!(set.export_bulk(&n0, blob, 16).is_err());
    }

    #[test]
    fn rmap_tracks_mappers() {
        let mut rmap = RMap::new();
        rmap.add(0x1000, 1, 5);
        rmap.add(0x1000, 2, 9);
        rmap.add(0x1000, 1, 5); // duplicate ignored
        assert_eq!(rmap.mappers(0x1000).len(), 2);
        rmap.remove(0x1000, 1, 5);
        assert_eq!(rmap.mappers(0x1000), &[(2, 9)]);
        rmap.remove(0x1000, 2, 9);
        assert!(rmap.is_empty());
        assert_eq!(rmap.mappers(0x9999), &[] as &[(u64, u64)]);
    }
}
