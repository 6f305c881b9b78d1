//! Synthetic layered container images, chunked and content-addressed.
//!
//! Stands in for the paper's 4 GB PyTorch image (which we cannot ship):
//! images are layered, page-granular, and *deterministically generated*
//! from a seed, so any node regenerates identical bytes. Each layer is
//! a **chunk manifest**: the ordered list of content hashes of its
//! pages, and the layer id is itself a content hash (the hash of the
//! chunk-hash list) — two independently built layers with the same
//! bytes get the same id, which is what lets unrelated images dedup
//! chunk-by-chunk in the rack-wide store.

use flac_store::{chunk_hash_each, ShardedBackends};
use flacdk::wire::fnv1a;
use flacos_mem::PAGE_SIZE;

/// One image layer: a deterministic blob of `pages` pages, named by
/// content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Content-derived layer id: the fnv1a hash over the ordered chunk
    /// hashes. Identical bytes ⇒ identical id, however the layer was
    /// built.
    pub id: u64,
    /// Generator seed (decides the bytes; layers built from the same
    /// seed and size are bit-identical).
    pub seed: u64,
    /// Size in pages.
    pub pages: u64,
    /// Content hash of each page, in order — the layer's chunk
    /// manifest.
    pub chunk_hashes: Vec<u64>,
}

impl Layer {
    /// Generate a layer of `pages` pages from `seed`, computing its
    /// chunk manifest and content-derived id.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn generate(seed: u64, pages: u64) -> Self {
        assert!(pages > 0, "a layer holds at least one page");
        let mut chunk_hashes = Vec::with_capacity(pages as usize);
        for group in page_groups(seed, pages) {
            let refs: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
            chunk_hashes.extend(chunk_hash_each(&refs));
        }
        let mut manifest_bytes = Vec::with_capacity(chunk_hashes.len() * 8);
        for h in &chunk_hashes {
            manifest_bytes.extend_from_slice(&h.to_le_bytes());
        }
        Layer {
            id: fnv1a(&manifest_bytes),
            seed,
            pages,
            chunk_hashes,
        }
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    /// Deterministic content of page `idx` of this layer.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn page_content(&self, idx: u64) -> Vec<u8> {
        assert!(
            idx < self.pages,
            "page {idx} beyond layer of {} pages",
            self.pages
        );
        generate_page(self.seed, idx)
    }

    /// Publish every chunk of this layer to its backend shard (the
    /// "registry upload"). Idempotent: already-published chunks are
    /// skipped. Returns the number of chunks newly published.
    pub fn publish(&self, backends: &ShardedBackends) -> u64 {
        page_groups(self.seed, self.pages)
            .map(|group| backends.publish_many(group))
            .sum()
    }
}

/// Pages generated and hashed together, bounding a layer's transient
/// page copies to one group.
const PAGE_GROUP: u64 = 64;

/// The pages of layer (`seed`, `pages`), in order, in groups of
/// [`PAGE_GROUP`].
fn page_groups(seed: u64, pages: u64) -> impl Iterator<Item = Vec<Vec<u8>>> {
    (0..pages).step_by(PAGE_GROUP as usize).map(move |lo| {
        (lo..(lo + PAGE_GROUP).min(pages))
            .map(|idx| generate_page(seed, idx))
            .collect()
    })
}

/// Deterministic page bytes for (`seed`, `idx`) — xorshift64* filler.
fn generate_page(seed: u64, idx: u64) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    let mut state = fnv1a(&[seed.to_le_bytes(), idx.to_le_bytes()].concat()) | 1;
    for chunk in page.chunks_mut(8) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let bytes = state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
    page
}

/// A named, layered container image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerImage {
    /// Image name ("pytorch:2.1").
    pub name: String,
    /// Ordered layers.
    pub layers: Vec<Layer>,
}

impl ContainerImage {
    /// Build an image of `total_pages` split over `layer_count` layers.
    /// `base_seed` seeds layer generators; images built with overlapping
    /// seed ranges share layers — and, because ids are content-derived,
    /// those shared layers carry identical ids and chunk hashes.
    ///
    /// # Panics
    ///
    /// Panics if `layer_count` is zero or exceeds `total_pages`.
    pub fn synthetic(name: &str, total_pages: u64, layer_count: usize, base_seed: u64) -> Self {
        assert!(layer_count > 0, "image needs at least one layer");
        assert!(layer_count as u64 <= total_pages, "more layers than pages");
        let per = total_pages / layer_count as u64;
        let remainder = total_pages - per * layer_count as u64;
        let layers: Vec<Layer> = (0..layer_count as u64)
            .map(|i| {
                // Remainder pages go to the last layer.
                let pages = if i + 1 == layer_count as u64 {
                    per + remainder
                } else {
                    per
                };
                Layer::generate(base_seed + i, pages)
            })
            .collect();
        ContainerImage {
            name: name.to_string(),
            layers,
        }
    }

    /// Total size in pages.
    pub fn total_pages(&self) -> u64 {
        self.layers.iter().map(|l| l.pages).sum()
    }

    /// Every chunk hash in the image, in layer order (duplicates kept —
    /// the store coalesces them).
    pub fn chunk_hashes(&self) -> Vec<u64> {
        self.layers
            .iter()
            .flat_map(|l| l.chunk_hashes.iter().copied())
            .collect()
    }

    /// Publish every layer's chunks to the backends. Returns the number
    /// of chunks newly published.
    pub fn publish(&self, backends: &ShardedBackends) -> u64 {
        self.layers.iter().map(|l| l.publish(backends)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flac_store::chunk_hash;

    #[test]
    fn synthetic_image_partitions_pages() {
        let img = ContainerImage::synthetic("pytorch", 100, 3, 7);
        assert_eq!(img.layers.len(), 3);
        assert_eq!(img.total_pages(), 100);
        assert_eq!(img.layers[0].pages, 33);
        assert_eq!(img.layers[2].pages, 34, "remainder on last layer");
        assert_eq!(img.chunk_hashes().len(), 100);
    }

    #[test]
    fn page_content_is_deterministic_and_distinct() {
        let layer = Layer::generate(5, 10);
        assert_eq!(layer.page_content(3), layer.page_content(3));
        assert_ne!(layer.page_content(3), layer.page_content(4));
        let other = Layer::generate(6, 10);
        assert_ne!(layer.page_content(3), other.page_content(3));
        assert_eq!(layer.page_content(0).len(), PAGE_SIZE);
        assert_eq!(
            layer.chunk_hashes[3],
            chunk_hash(&layer.page_content(3)),
            "the manifest names the real bytes"
        );
    }

    #[test]
    fn identical_content_gets_identical_ids_across_images() {
        // Two images built independently with overlapping seed ranges:
        // the shared layers carry the same content, so the same id.
        let a = ContainerImage::synthetic("pytorch", 64, 4, 100);
        let b = ContainerImage::synthetic("jupyter", 64, 4, 102);
        assert_eq!(a.layers[2].id, b.layers[0].id, "same bytes, same id");
        assert_eq!(a.layers[2].chunk_hashes, b.layers[0].chunk_hashes);
        assert_ne!(a.layers[0].id, b.layers[0].id, "different bytes differ");
        // And the id really is derived from content, not the seed: a
        // layer of different size from the same seed has a new id.
        let long = Layer::generate(100, 32);
        assert_ne!(a.layers[0].id, long.id);
    }

    #[test]
    fn publish_is_idempotent_and_dedups_shared_layers() {
        let backends =
            ShardedBackends::uniform(4, flac_store::BackendConfig::paper_calibrated(4, 64));
        let a = ContainerImage::synthetic("a", 40, 2, 100);
        let b = ContainerImage::synthetic("b", 40, 2, 101); // shares layer seed 101
        assert_eq!(a.publish(&backends), 40);
        assert_eq!(b.publish(&backends), 20, "shared layer already published");
        for h in a.chunk_hashes() {
            assert!(backends.contains(h));
        }
    }

    #[test]
    #[should_panic(expected = "beyond layer")]
    fn out_of_range_page_panics() {
        Layer::generate(1, 2).page_content(2);
    }
}
