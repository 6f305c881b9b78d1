//! Topology depth × page size on the zipf tiering workload: section
//! `topo` (ablation A11) of `figures`.
//!
//! The tentpole claim (paper §2.1/§3.3, hierarchical memory
//! interconnects): page-granular tiering pays one rack-wide TLB
//! shootdown *per 4 KiB page*, so promoting a hot 2 MiB region costs
//! 512 broadcast/ack rounds. Region-granular tiering coalesces the same
//! region into one huge local mapping with ONE ranged shootdown, and the
//! huge TLB entry covers all 512 base pages with a single slot (TLB
//! reach). This bench runs the same zipf read stream under the same
//! local-DRAM budget on a flat switched rack and on a two-level pod, in
//! two arms:
//!
//! * `base` — 4 KiB-only tiering (region coalescing disabled)
//! * `huge` — region-granular tiering (4 KiB promotions score-gated off,
//!   the budget spent on one 2 MiB coalesce)
//!
//! and reports p50/p99 access latency, shootdown rounds, and a
//! fixed-seed rerun fingerprint. A separate deterministic probe pins the
//! headline number exactly: promoting one fully-hot 2 MiB region takes
//! 512 shootdown rounds page-wise and 1 round region-wise.

use crate::percentile_ns;
use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacos_mem::addr::VirtAddr;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::tlb::{shootdown_stepped_range, Tlb};
use flacos_mem::{
    huge_base, AddressSpace, PageSize, PhysFrame, Pte, HUGE_PAGE_SIZE, PAGES_PER_HUGE, PAGE_SIZE,
};
use flacos_tier::{TierBudget, TierConfig, TierDaemon};
use rack_sim::{GAddr, LAddr, Rack, RackConfig, SplitMix64, Zipf};

/// Address-space id used by the workload.
const ASID: u64 = 1;
/// Deterministic workload seed.
const SEED: u64 = 0x0F1A_70B0;
/// Working-set pages: exactly two 2 MiB regions.
const PAGES: usize = 2 * PAGES_PER_HUGE as usize;
/// Zipf skew of the access stream.
const SKEW: f64 = 0.99;
/// Daemon tick period, in accesses.
const TICK_EVERY: usize = 250;
/// TLB slots per node — small enough that 4 KiB entries thrash on a
/// 1024-page working set while one huge entry covers half of it.
const TLB_CAPACITY: usize = 16;
/// Local-DRAM budget per node: exactly one 2 MiB region, enforced on
/// BOTH arms through the shared [`TierBudget`] ledger.
const BUDGET_BYTES: u64 = HUGE_PAGE_SIZE as u64;
/// Desired-set pages a region needs before the huge arm coalesces it.
const REGION_MIN_HOT: usize = 48;

/// Sweep sizing.
#[derive(Debug, Clone, Copy)]
pub struct TopoScaleConfig {
    /// Accesses before measurement starts (the daemon learns and
    /// migrates; the huge arm coalesces on its first tick).
    pub warmup: usize,
    /// Measured accesses per arm.
    pub measured: usize,
}

impl TopoScaleConfig {
    /// The sizing of `figures topo`.
    pub fn full() -> Self {
        TopoScaleConfig {
            warmup: 3000,
            measured: 5000,
        }
    }
}

/// `frame` advanced `bytes` into its allocation.
fn frame_fwd(frame: PhysFrame, bytes: u64) -> PhysFrame {
    match frame {
        PhysFrame::Global(a) => PhysFrame::Global(a.offset(bytes)),
        PhysFrame::Local(n, a) => PhysFrame::Local(n, LAddr(a.0 + bytes as usize)),
    }
}

/// `frame` rewound `bytes` — recovers a region-head frame from the
/// per-vpn view [`AddressSpace::translate`] synthesizes.
fn frame_back(frame: PhysFrame, bytes: u64) -> PhysFrame {
    match frame {
        PhysFrame::Global(a) => PhysFrame::Global(GAddr(a.0 - bytes)),
        PhysFrame::Local(n, a) => PhysFrame::Local(n, LAddr(a.0 - bytes as usize)),
    }
}

/// Huge-page-aware TLB front end: per-vpn entries first, then the
/// region-head entry (one slot covers all 512 base pages); a miss walks
/// the shared page table and caches a huge translation at its head.
fn tlb_frame(
    tlb: &mut Tlb,
    space: &AddressSpace,
    n0: &std::sync::Arc<rack_sim::NodeCtx>,
    vpn: u64,
) -> PhysFrame {
    if let Some(p) = tlb.lookup(ASID, vpn) {
        return p.frame;
    }
    let head = huge_base(vpn);
    if head != vpn {
        if let Some(h) = tlb.lookup(ASID, head) {
            if h.page_size == PageSize::Huge {
                return frame_fwd(h.frame, (vpn - head) * PAGE_SIZE as u64);
            }
        }
    }
    let p = space
        .translate(n0, VirtAddr::from_vpn(vpn))
        .expect("walk")
        .expect("mapped");
    if p.page_size == PageSize::Huge {
        let off = (vpn - head) * PAGE_SIZE as u64;
        let mut head_pte = p;
        head_pte.frame = frame_back(p.frame, off);
        tlb.fill(ASID, head, head_pte);
    } else {
        tlb.fill(ASID, vpn, p);
    }
    p.frame
}

/// The rack under test for one topology label.
fn build_rack(topo: &str) -> Rack {
    match topo {
        "flat" => Rack::new(RackConfig::n_node(2)),
        _ => Rack::new(RackConfig::pod(2, 2)),
    }
}

/// One arm of a sweep row, run twice on fresh racks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoArm {
    /// Sum of the measured access latencies, simulated ns.
    pub sim_ns: u64,
    /// The same from a second run on a fresh rack; must equal
    /// `sim_ns` (`run_arm` leaves it 0 for `run_cell` to fill).
    pub sim_ns_rerun: u64,
    /// Median access latency, simulated ns.
    pub p50_ns: u64,
    /// Tail access latency, simulated ns.
    pub p99_ns: u64,
    /// 4 KiB promotions.
    pub promoted: u64,
    /// 4 KiB demotions.
    pub demoted: u64,
    /// 2 MiB region coalesces.
    pub region_promotions: u64,
    /// TLB shootdown rounds the initiator issued (one per 4 KiB
    /// migration, one per 2 MiB region).
    pub shootdown_rounds: u64,
}

/// The daemon policy for one arm: same budget ledger, different
/// migration granularity.
fn arm_config(huge: bool) -> TierConfig {
    TierConfig {
        local_budget_bytes: BUDGET_BYTES,
        // huge arm: coalesce hot regions, score-gate 4 KiB promotions
        // off (normalized scores never exceed 1.0) so the whole budget
        // goes to one region migration with one ranged shootdown.
        huge_region_min_hot_pages: if huge { REGION_MIN_HOT } else { 0 },
        min_promote_score: if huge { 1.1 } else { 0.0 },
        ..TierConfig::default()
    }
}

/// One arm: the zipf read stream, TLB-fronted, with the tiering daemon
/// closing the loop from sampled accesses to migrations.
fn run_arm(cfg: TopoScaleConfig, topo: &str, huge: bool) -> TopoArm {
    let rack = build_rack(topo);
    let nodes = rack.node_count();
    let n0 = rack.node(0);
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), nodes).expect("epochs");
    let space = AddressSpace::alloc(ASID, rack.global(), alloc, epochs, RetireList::new())
        .expect("address space");
    let frames = FrameAllocator::new(rack.global().clone());
    for vpn in 0..PAGES as u64 {
        let f = frames.alloc(&n0).expect("frame");
        space
            .map(&n0, vpn, Pte::new(PhysFrame::Global(f), true))
            .expect("map");
    }

    let mut tlbs: Vec<Tlb> = (0..nodes)
        .map(|i| Tlb::new(rack.node(i), TLB_CAPACITY))
        .collect();
    let budget = TierBudget::alloc(rack.global(), nodes, BUDGET_BYTES).expect("budget");
    let mut daemon = TierDaemon::new(n0.clone(), arm_config(huge)).with_budget(budget);

    let mut rng = SplitMix64::new(SEED);
    let zipf = Zipf::new(PAGES, SKEW);
    let mut latencies = Vec::with_capacity(cfg.measured);
    let mut promoted = 0u64;
    let mut demoted = 0u64;
    let mut region_promotions = 0u64;
    let mut buf = [0u8; 64];

    for i in 0..cfg.warmup + cfg.measured {
        let vpn = zipf.sample(&mut rng) as u64;
        let t0 = n0.clock().now();
        let frame = tlb_frame(&mut tlbs[0], &space, &n0, vpn);
        space.read_frame(&n0, frame, &mut buf).expect("read");
        let lat = n0.clock().now() - t0;
        if i >= cfg.warmup {
            latencies.push(lat);
        }

        daemon.note_access(n0.id(), ASID, vpn);
        if (i + 1) % TICK_EVERY == 0 {
            let report = daemon
                .tick(&space, &frames, &mut |asid, vpn, span| {
                    shootdown_stepped_range(&mut tlbs, 0, asid, vpn, span)
                })
                .expect("tier tick");
            promoted += report.promoted;
            demoted += report.demoted;
            region_promotions += report.region_promotions;
        }
    }

    let sim_ns = latencies.iter().sum();
    latencies.sort_unstable();
    TopoArm {
        sim_ns,
        sim_ns_rerun: 0,
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
        promoted,
        demoted,
        region_promotions,
        shootdown_rounds: tlbs[0].stats().shootdown_rounds,
    }
}

/// One topology: the 4 KiB-only arm and the region-granular arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoRow {
    /// `flat` or `pod`.
    pub topo: &'static str,
    /// 4 KiB-only tiering.
    pub base: TopoArm,
    /// Region-granular tiering.
    pub huge: TopoArm,
}

impl TopoRow {
    /// Each mode's name and arm.
    pub fn arms(&self) -> [(&'static str, &TopoArm); 2] {
        [("base", &self.base), ("huge", &self.huge)]
    }
}

/// The region probe and the topology × page-size sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoScale {
    /// Measured accesses per arm.
    pub measured: usize,
    /// The probe's page-wise shootdown rounds ([`region_probe`]).
    pub base_rounds: u64,
    /// The probe's region-wise shootdown rounds.
    pub huge_rounds: u64,
    /// The flat rack, then the pod.
    pub rows: [TopoRow; 2],
}

/// One arm run twice on fresh racks.
fn run_cell(cfg: TopoScaleConfig, topo: &str, huge: bool) -> TopoArm {
    let first = run_arm(cfg, topo, huge);
    TopoArm {
        sim_ns_rerun: run_arm(cfg, topo, huge).sim_ns,
        ..first
    }
}

/// Run the topology × page-size sweep.
pub fn run_sweep(cfg: TopoScaleConfig) -> [TopoRow; 2] {
    ["flat", "pod"].map(|topo| TopoRow {
        topo,
        base: run_cell(cfg, topo, false),
        huge: run_cell(cfg, topo, true),
    })
}

/// Deterministic headline probe: promote ONE fully-hot 2 MiB region on a
/// two-node rack, page-wise then region-wise, and count the shootdown
/// rounds the initiator issued. Returns `(base_rounds, huge_rounds)` —
/// the acceptance target is exactly `(512, 1)`.
pub fn region_probe() -> (u64, u64) {
    let mut rounds = [0u64; 2];
    for (slot, huge) in [(0usize, false), (1usize, true)] {
        let rack = Rack::new(RackConfig::n_node(2));
        let nodes = rack.node_count();
        let n0 = rack.node(0);
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), nodes).expect("epochs");
        let space = AddressSpace::alloc(ASID, rack.global(), alloc, epochs, RetireList::new())
            .expect("address space");
        let frames = FrameAllocator::new(rack.global().clone());
        for vpn in 0..PAGES_PER_HUGE {
            let f = frames.alloc(&n0).expect("frame");
            space
                .map(&n0, vpn, Pte::new(PhysFrame::Global(f), true))
                .expect("map");
        }
        let mut tlbs: Vec<Tlb> = (0..nodes)
            .map(|i| Tlb::new(rack.node(i), TLB_CAPACITY))
            .collect();
        let budget = TierBudget::alloc(rack.global(), nodes, BUDGET_BYTES).expect("budget");
        let mut daemon = TierDaemon::new(
            n0.clone(),
            TierConfig {
                max_migrations_per_tick: PAGES_PER_HUGE as usize,
                ..arm_config(huge)
            },
        )
        .with_budget(budget);
        for vpn in 0..PAGES_PER_HUGE {
            daemon.note_access(n0.id(), ASID, vpn);
        }
        let report = daemon
            .tick(&space, &frames, &mut |asid, vpn, span| {
                shootdown_stepped_range(&mut tlbs, 0, asid, vpn, span)
            })
            .expect("tier tick");
        assert_eq!(
            report.promoted + report.region_promotions * PAGES_PER_HUGE,
            PAGES_PER_HUGE,
            "probe must migrate the whole region in one tick"
        );
        rounds[slot] = tlbs[0].stats().shootdown_rounds;
    }
    (rounds[0], rounds[1])
}

/// The judgement of a run: the region probe pinning exactly 512
/// page-wise vs 1 region-wise shootdown rounds, the huge arm beating the
/// base arm's p50 and round count at the same local-DRAM budget on
/// every topology, only the huge arm coalescing regions, and every
/// arm's fixed-seed rerun reproducing its simulated time.
pub fn failures(r: &TopoScale) -> Vec<String> {
    let mut failures = Vec::new();
    if (r.base_rounds, r.huge_rounds) != (PAGES_PER_HUGE, 1) {
        failures.push(format!(
            "region probe: expected ({PAGES_PER_HUGE}, 1) shootdown rounds \
             (page-wise, region-wise), got ({}, {})",
            r.base_rounds, r.huge_rounds
        ));
    }
    for row in &r.rows {
        let (topo, base, huge) = (row.topo, &row.base, &row.huge);
        for (mode, arm) in row.arms() {
            if arm.sim_ns != arm.sim_ns_rerun {
                failures.push(format!(
                    "topo={topo} mode={mode}: seeded rerun did not reproduce sim_ns ({} vs {})",
                    arm.sim_ns, arm.sim_ns_rerun
                ));
            }
        }
        if huge.region_promotions < 1 {
            failures.push(format!("{topo}: huge arm coalesced no region"));
        }
        if base.region_promotions != 0 {
            failures.push(format!(
                "{topo}: base arm must not coalesce regions, coalesced {}",
                base.region_promotions
            ));
        }
        if huge.p50_ns >= base.p50_ns {
            failures.push(format!(
                "{topo}: huge p50 {} ns is not below base p50 {} ns at the same budget",
                huge.p50_ns, base.p50_ns
            ));
        }
        if huge.shootdown_rounds >= base.shootdown_rounds {
            failures.push(format!(
                "{topo}: huge arm issued {} shootdown rounds, base {} — region coalescing \
                 must cut rounds",
                huge.shootdown_rounds, base.shootdown_rounds
            ));
        }
    }
    failures
}

/// Run the region probe and the sweep of [`TopoScaleConfig::full`].
pub fn run() -> TopoScale {
    run_with(TopoScaleConfig::full())
}

/// [`run`] at the sizes of `cfg`.
fn run_with(cfg: TopoScaleConfig) -> TopoScale {
    let (base_rounds, huge_rounds) = region_probe();
    TopoScale {
        measured: cfg.measured,
        base_rounds,
        huge_rounds,
        rows: run_sweep(cfg),
    }
}

/// Render the sweep and the probe, every value exact.
pub fn report(r: &TopoScale) -> String {
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .flat_map(|row| {
            row.arms().map(|(mode, arm)| {
                vec![
                    row.topo.to_string(),
                    mode.to_string(),
                    arm.sim_ns.to_string(),
                    arm.p50_ns.to_string(),
                    arm.p99_ns.to_string(),
                    arm.promoted.to_string(),
                    arm.demoted.to_string(),
                    arm.region_promotions.to_string(),
                    arm.shootdown_rounds.to_string(),
                ]
            })
        })
        .collect();
    format!(
        "Ablation A11: topology depth x page size ({PAGES} pages, zipf {SKEW}, {BUDGET_BYTES} B \
         local budget, {} reads/arm, simulated ns)\n\n{}\n\
         region promotion probe: {} page-wise shootdown rounds vs {} region-wise\n",
        r.measured,
        crate::table::render(
            &[
                "topology",
                "mode",
                "sim ns",
                "p50 ns",
                "p99 ns",
                "promoted",
                "demoted",
                "regions",
                "shootdown rounds"
            ],
            &rows
        ),
        r.base_rounds,
        r.huge_rounds
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fewer accesses than the full run, run once for every test.
    fn quick() -> &'static TopoScale {
        static QUICK: std::sync::OnceLock<TopoScale> = std::sync::OnceLock::new();
        QUICK.get_or_init(|| {
            run_with(TopoScaleConfig {
                warmup: 1000,
                measured: 2000,
            })
        })
    }

    #[test]
    fn region_probe_pins_512_to_1() {
        assert_eq!(region_probe(), (PAGES_PER_HUGE, 1));
    }

    #[test]
    fn quick_sweep_passes_the_gate() {
        assert_eq!(failures(quick()), Vec::<String>::new());
    }

    #[test]
    fn judgement_rejects_each_broken_invariant() {
        crate::assert_judged(
            quick(),
            failures,
            &[
                ("region probe", |r| r.huge_rounds = 2),
                ("topo=pod mode=huge: seeded rerun did not reproduce", |r| {
                    r.rows[1].huge.sim_ns_rerun += 1;
                }),
                ("coalesced no region", |r| {
                    r.rows[0].huge.region_promotions = 0
                }),
                ("must not coalesce", |r| {
                    r.rows[1].base.region_promotions = 1
                }),
                ("is not below base p50", |r| {
                    r.rows[0].huge.p50_ns = r.rows[0].base.p50_ns;
                }),
                ("must cut rounds", |r| {
                    r.rows[1].huge.shootdown_rounds = r.rows[1].base.shootdown_rounds;
                }),
            ],
        );
    }
}
