//! Ablation A5 — page dedup effectiveness on container image pages.
//!
//! §3.4 motivates the shared page cache with cross-node duplication of
//! container images. Here, multiple images share base layers (as real
//! images share distro layers); interning every page through the
//! deduper shows how much memory the single-copy property saves.

use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::PAGE_SIZE;
use rack_sim::{Rack, RackConfig, RackReport};
use serverless::image::ContainerImage;

/// One measured configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupRow {
    /// Images interned.
    pub images: usize,
    /// Shared base layers per image.
    pub shared_layers: usize,
    /// Total pages interned.
    pub pages_interned: u64,
    /// Distinct frames actually stored.
    pub unique_frames: u64,
    /// Bytes saved by deduplication.
    pub bytes_saved: u64,
}

impl DedupRow {
    /// Effective compression ratio.
    pub fn ratio(&self) -> f64 {
        self.pages_interned as f64 / self.unique_frames.max(1) as f64
    }
}

/// Intern `images` images of `pages_each` pages; all images share their
/// first `shared_layers` (of 4) layers. Returns the row and the rack's
/// metrics.
pub fn run_cell(images: usize, pages_each: u64, shared_layers: usize) -> (DedupRow, RackReport) {
    let rack = Rack::new(RackConfig::small_test().with_global_mem(256 << 20));
    let dedup = PageDeduper::new(FrameAllocator::new(rack.global().clone()));
    let n0 = rack.node(0);

    for img_idx in 0..images {
        // Shared base layers use the common seed space; unique layers
        // are regenerated from per-image seeds (their content-derived
        // ids differ automatically).
        let image = ContainerImage::synthetic(&format!("img{img_idx}"), pages_each, 4, 0);
        for (layer_idx, layer) in image.layers.iter().enumerate() {
            let effective = if layer_idx < shared_layers {
                layer.clone() // shared seed space: identical content
            } else {
                serverless::image::Layer::generate(
                    10_000 + (img_idx * 10 + layer_idx) as u64,
                    layer.pages,
                )
            };
            for p in 0..effective.pages {
                dedup
                    .intern(&n0, &effective.page_content(p))
                    .expect("intern");
            }
        }
    }

    let stats = dedup.stats();
    let row = DedupRow {
        images,
        shared_layers,
        pages_interned: stats.interned,
        unique_frames: stats.unique_frames,
        bytes_saved: stats.bytes_saved,
    };
    (row, rack.metrics_report())
}

/// Run the sweep over sharing degrees, with the rack-wide metrics of
/// the fully shared cell: operation counts and latency histograms.
pub fn run() -> (Vec<DedupRow>, RackReport) {
    crate::sweep([0usize, 2, 4], 4, |s| run_cell(4, 64, s))
}

/// Render the sweep.
pub fn report(rows: &[DedupRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.images.to_string(),
                format!("{}/4", r.shared_layers),
                r.pages_interned.to_string(),
                r.unique_frames.to_string(),
                crate::table::fmt_bytes(r.bytes_saved),
                format!("{:.2}x", r.ratio()),
            ]
        })
        .collect();
    format!(
        "Ablation A5: page dedup on container images ({} B pages)\n\n{}",
        PAGE_SIZE,
        crate::table::render(
            &[
                "images",
                "shared layers",
                "pages",
                "unique frames",
                "saved",
                "ratio"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_shared_images_store_once() {
        let (row, _) = run_cell(4, 32, 4);
        // 4 identical images: only one image's worth of frames.
        assert_eq!(row.pages_interned, 4 * 32);
        assert_eq!(row.unique_frames, 32);
        assert!((row.ratio() - 4.0).abs() < 1e-9);
        assert_eq!(row.bytes_saved, 3 * 32 * PAGE_SIZE as u64);
    }

    #[test]
    fn unshared_images_store_everything() {
        let (row, _) = run_cell(3, 32, 0);
        assert_eq!(row.unique_frames, 3 * 32);
        assert_eq!(row.bytes_saved, 0);
    }

    #[test]
    fn savings_scale_with_shared_fraction() {
        let (none, _) = run_cell(4, 64, 0);
        let (half, _) = run_cell(4, 64, 2);
        let (all, _) = run_cell(4, 64, 4);
        assert!(none.bytes_saved < half.bytes_saved);
        assert!(half.bytes_saved < all.bytes_saved);
    }
}
