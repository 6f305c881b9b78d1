//! Ablation A7 — page tiering daemon off vs. on.
//!
//! The paper's tiering argument (§2.1/§3.3): under a skewed access
//! pattern, promoting the hot working set from the global pool
//! (~480 ns loads on HCCS) into node-local DRAM (~90 ns) should cut the
//! median access latency several-fold while the budget caps how much
//! fast memory the daemon may claim. We run the same zipf-distributed
//! TLB-fronted read workload twice — daemon off, then daemon on — and
//! compare p50/p99.

use crate::percentile_ns;
use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacos_mem::addr::VirtAddr;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::tlb::{shootdown_stepped_range, Tlb};
use flacos_mem::{AddressSpace, PhysFrame, Pte, PAGE_SIZE};
use flacos_tier::{TierConfig, TierDaemon};
use rack_sim::{Rack, RackConfig, RackReport, SplitMix64, Zipf};

/// Address-space id used by the workload.
const ASID: u64 = 1;
/// Deterministic workload seed.
const SEED: u64 = 0x0F1A_C0A7;
/// Accesses before measurement starts (the daemon learns and migrates).
const WARMUP_ACCESSES: usize = 2000;
/// Measured accesses per cell.
const MEASURED_ACCESSES: usize = 4000;
/// Daemon tick period, in accesses.
const TICK_EVERY: usize = 250;
/// Local-DRAM promotion budget, in pages.
const BUDGET_PAGES: usize = 64;

/// Result of one skew cell: the same workload with the daemon off/on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieringRow {
    /// Zipf skew of the access stream.
    pub skew: f64,
    /// Pages in the working set.
    pub pages: usize,
    /// Measured accesses per arm.
    pub accesses: usize,
    /// Median access latency with tiering off, ns.
    pub off_p50_ns: u64,
    /// Tail access latency with tiering off, ns.
    pub off_p99_ns: u64,
    /// Median access latency with tiering on, ns.
    pub on_p50_ns: u64,
    /// Tail access latency with tiering on, ns.
    pub on_p99_ns: u64,
    /// Pages the daemon promoted into local DRAM.
    pub promotions: u64,
    /// Pages the daemon demoted back to the global pool.
    pub demotions: u64,
}

impl TieringRow {
    /// Median-latency speedup from turning the daemon on.
    pub fn p50_speedup(&self) -> f64 {
        self.off_p50_ns as f64 / self.on_p50_ns.max(1) as f64
    }
}

struct ArmResult {
    p50_ns: u64,
    p99_ns: u64,
    promotions: u64,
    demotions: u64,
}

/// One arm of the A/B on a fresh two-node rack (the off arm must not
/// see the on arm's migrated pages): the zipf read stream against
/// `pages` global pages, TLB-fronted, optionally with the tiering
/// daemon closing the loop from sampled accesses to promotions. Returns
/// the arm and the rack's metrics.
fn run_arm(skew: f64, pages: usize, daemon_on: bool) -> (ArmResult, RackReport) {
    let rack = Rack::new(RackConfig::n_node(2).with_global_mem(64 << 20));
    let nodes = rack.node_count();
    let n0 = rack.node(0);
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), nodes).expect("epochs");
    let space = AddressSpace::alloc(ASID, rack.global(), alloc, epochs, RetireList::new())
        .expect("address space");
    let frames = FrameAllocator::new(rack.global().clone());
    for vpn in 0..pages as u64 {
        let f = frames.alloc(&n0).expect("frame");
        space
            .map(&n0, vpn, Pte::new(PhysFrame::Global(f), true))
            .expect("map");
    }

    let mut tlbs: Vec<Tlb> = (0..nodes)
        .map(|i| Tlb::new(rack.node(i), pages.max(16)))
        .collect();
    let mut daemon = daemon_on.then(|| {
        TierDaemon::new(
            n0.clone(),
            TierConfig {
                local_budget_bytes: (BUDGET_PAGES * PAGE_SIZE) as u64,
                max_migrations_per_tick: 16,
                ..TierConfig::default()
            },
        )
    });

    let mut rng = SplitMix64::new(SEED);
    let zipf = Zipf::new(pages, skew);
    let mut latencies = Vec::with_capacity(MEASURED_ACCESSES);
    let mut promotions = 0u64;
    let mut demotions = 0u64;
    let mut buf = [0u8; 64];

    for i in 0..WARMUP_ACCESSES + MEASURED_ACCESSES {
        let vpn = zipf.sample(&mut rng) as u64;
        let t0 = n0.clock().now();
        // TLB-fronted access: hit → read through the cached translation;
        // miss → walk the shared page table and fill.
        let pte = match tlbs[0].lookup(ASID, vpn) {
            Some(p) => p,
            None => {
                let p = space
                    .translate(&n0, VirtAddr::from_vpn(vpn))
                    .expect("walk")
                    .expect("mapped");
                tlbs[0].fill(ASID, vpn, p);
                p
            }
        };
        space.read_frame(&n0, pte.frame, &mut buf).expect("read");
        let lat = n0.clock().now() - t0;
        if i >= WARMUP_ACCESSES {
            latencies.push(lat);
        }

        if let Some(d) = daemon.as_mut() {
            d.note_access(n0.id(), ASID, vpn);
            if (i + 1) % TICK_EVERY == 0 {
                let report = d
                    .tick(&space, &frames, &mut |asid, vpn, span| {
                        shootdown_stepped_range(&mut tlbs, 0, asid, vpn, span)
                    })
                    .expect("tier tick");
                promotions += report.promoted;
                demotions += report.demoted;
            }
        }
    }

    latencies.sort_unstable();
    let arm = ArmResult {
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
        promotions,
        demotions,
    };
    (arm, rack.metrics_report())
}

/// Run one skew cell, with the metrics of its daemon-on arm.
pub fn run_cell(skew: f64, pages: usize) -> (TieringRow, RackReport) {
    let (off, _) = run_arm(skew, pages, false);
    let (on, metrics) = run_arm(skew, pages, true);
    let row = TieringRow {
        skew,
        pages,
        accesses: MEASURED_ACCESSES,
        off_p50_ns: off.p50_ns,
        off_p99_ns: off.p99_ns,
        on_p50_ns: on.p50_ns,
        on_p99_ns: on.p99_ns,
        promotions: on.promotions,
        demotions: on.demotions,
    };
    (row, metrics)
}

/// Run the skew sweep, with the rack-wide metrics of the headline cell
/// (zipf 0.99, daemon on): per-tier byte traffic and the `tier`
/// promotion/shootdown counters.
pub fn run() -> (Vec<TieringRow>, RackReport) {
    crate::sweep([0.6, 0.99, 1.2], 0.99, |s| run_cell(s, 512))
}

/// Render the sweep.
pub fn report(rows: &[TieringRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.skew),
                r.pages.to_string(),
                crate::table::fmt_ns(r.off_p50_ns),
                crate::table::fmt_ns(r.off_p99_ns),
                crate::table::fmt_ns(r.on_p50_ns),
                crate::table::fmt_ns(r.on_p99_ns),
                format!("{:.1}x", r.p50_speedup()),
                r.promotions.to_string(),
                r.demotions.to_string(),
            ]
        })
        .collect();
    format!(
        "Ablation A7: page tiering daemon off vs on ({} reads/arm)\n\n{}",
        rows.first().map_or(0, |r| r.accesses),
        crate::table::render(
            &[
                "zipf skew",
                "pages",
                "off p50",
                "off p99",
                "on p50",
                "on p99",
                "p50 gain",
                "promoted",
                "demoted"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_workload_speeds_up_at_least_2x() {
        let (row, _) = run_cell(0.99, 512);
        assert!(
            row.p50_speedup() >= 2.0,
            "p50 {} ns off vs {} ns on",
            row.off_p50_ns,
            row.on_p50_ns
        );
        // The daemon promoted a working set but stayed within budget.
        assert!(row.promotions > 0);
        assert!((row.promotions - row.demotions) as usize <= BUDGET_PAGES);
        // Off arm reads are dominated by the ~480 ns interconnect load.
        assert!(row.off_p50_ns >= 400);
        // On arm medians land on the ~90 ns local-DRAM path.
        assert!(row.on_p50_ns <= 200, "on p50 {} ns", row.on_p50_ns);
    }

    #[test]
    fn uniform_ish_workload_gains_less_than_skewed() {
        let (flat, _) = run_cell(0.3, 256);
        let (skewed, _) = run_cell(1.2, 256);
        assert!(skewed.p50_speedup() >= flat.p50_speedup());
        // The tail may include a shared-page-table walk after a
        // shootdown invalidation, but stays bounded by a few
        // interconnect round trips.
        assert!(flat.on_p99_ns <= 5_000, "on p99 {} ns", flat.on_p99_ns);
    }
}
