//! `flac-bench topo` — topology depth × page size on the zipf tiering
//! workload.
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

use crate::report::{Point, Report};

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
    /// Committed-report sizing.
    pub fn full() -> Self {
        TopoScaleConfig {
            warmup: 3000,
            measured: 5000,
        }
    }
}

/// Exact percentile over raw latency samples.
fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
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

struct ArmResult {
    p50_ns: u64,
    p99_ns: u64,
    promoted: u64,
    demoted: u64,
    region_promotions: u64,
    shootdown_rounds: u64,
    total_ns: u64,
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
fn run_arm(cfg: TopoScaleConfig, topo: &str, huge: bool) -> ArmResult {
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

    let total_ns = latencies.iter().sum();
    latencies.sort_unstable();
    ArmResult {
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
        promoted,
        demoted,
        region_promotions,
        shootdown_rounds: tlbs[0].stats().shootdown_rounds,
        total_ns,
    }
}

/// One sweep cell, keyed `topo=<flat|pod> mode=<base|huge>`: the arm
/// run twice on fresh racks. `sim_ns` is the sum of the measured access
/// latencies and `sim_ns_rerun` the same from the second run; `promoted`
/// and `demoted` count 4 KiB migrations, `region_promotions` 2 MiB
/// coalesces, and `shootdown_rounds` the TLB shootdown rounds the
/// initiator issued (one per 4 KiB migration, one per 2 MiB region).
fn run_cell(cfg: TopoScaleConfig, topo: &str, huge: bool) -> Point {
    let a = run_arm(cfg, topo, huge);
    let b = run_arm(cfg, topo, huge);
    let mode = if huge { "huge" } else { "base" };
    Point::new(format!("topo={topo} mode={mode}"))
        .with("sim_ns", a.total_ns)
        .with("sim_ns_rerun", b.total_ns)
        .with("p50_ns", a.p50_ns)
        .with("p99_ns", a.p99_ns)
        .with("promoted", a.promoted)
        .with("demoted", a.demoted)
        .with("region_promotions", a.region_promotions)
        .with("shootdown_rounds", a.shootdown_rounds)
}

/// Run the topology × page-size sweep.
pub fn run_sweep(cfg: TopoScaleConfig) -> Vec<Point> {
    let mut rows = Vec::with_capacity(4);
    for topo in ["flat", "pod"] {
        for huge in [false, true] {
            rows.push(run_cell(cfg, topo, huge));
        }
    }
    rows
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

/// The judgement of a report: every (topology, mode) cell of the sweep
/// present, the region probe pinning exactly 512 page-wise vs 1
/// region-wise shootdown rounds, and the huge arm beating the base
/// arm's p50 and round count at the same local-DRAM budget on every
/// topology. Rerun parity is the schema's own check.
///
/// # Errors
///
/// Names a column or fact the report lacks.
pub fn failures(report: &Report) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let probe = (
        report.facts.u64("base_rounds")?,
        report.facts.u64("huge_rounds")?,
    );
    if probe != (PAGES_PER_HUGE, 1) {
        failures.push(format!(
            "region probe: expected ({PAGES_PER_HUGE}, 1) shootdown rounds \
             (page-wise, region-wise), got ({}, {})",
            probe.0, probe.1
        ));
    }
    for topo in ["flat", "pod"] {
        for mode in ["base", "huge"] {
            if report.point(&format!("topo={topo} mode={mode}")).is_none() {
                failures.push(format!("missing sweep cell {topo}/{mode}"));
            }
        }
        let (Some(base), Some(huge)) = (
            report.point(&format!("topo={topo} mode=base")),
            report.point(&format!("topo={topo} mode=huge")),
        ) else {
            continue; // a missing cell is named above
        };
        if huge.u64("region_promotions")? < 1 {
            failures.push(format!("{topo}: huge arm coalesced no region"));
        }
        if base.u64("region_promotions")? != 0 {
            failures.push(format!("{topo}: base arm must not coalesce regions"));
        }
        let (huge_p50, base_p50) = (huge.u64("p50_ns")?, base.u64("p50_ns")?);
        if huge_p50 >= base_p50 {
            failures.push(format!(
                "{topo}: huge p50 {huge_p50} ns is not below base p50 {base_p50} ns at the \
                 same budget"
            ));
        }
        let (huge_rounds, base_rounds) =
            (huge.u64("shootdown_rounds")?, base.u64("shootdown_rounds")?);
        if huge_rounds >= base_rounds {
            failures.push(format!(
                "{topo}: huge arm issued {huge_rounds} shootdown rounds, base {base_rounds} — \
                 region coalescing must cut rounds"
            ));
        }
    }
    Ok(failures)
}

/// Run the region probe and the sweep of [`TopoScaleConfig::full`],
/// printing the probe line, and build the report.
pub fn run() -> Report {
    run_with(TopoScaleConfig::full())
}

/// [`run`] at the sizes of `cfg`.
fn run_with(cfg: TopoScaleConfig) -> Report {
    println!("topo: {} measured accesses per arm", cfg.measured);
    let (base_rounds, huge_rounds) = region_probe();
    println!(
        "  region promotion: {base_rounds} page-wise shootdown rounds vs {huge_rounds} ranged round"
    );
    let mut report = Report::new("topo")
        .fact("pages", PAGES)
        .fact("zipf_skew", SKEW)
        .fact("budget_bytes", BUDGET_BYTES)
        .fact("base_rounds", base_rounds)
        .fact("huge_rounds", huge_rounds);
    report.points = run_sweep(cfg);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_probe_pins_512_to_1() {
        assert_eq!(region_probe(), (PAGES_PER_HUGE, 1));
    }

    #[test]
    fn quick_sweep_passes_the_gate_and_roundtrips() {
        let report = run_with(TopoScaleConfig {
            warmup: 1000,
            measured: 2000,
        });
        let json = report.to_json();
        assert_eq!(Report::parse(&json).as_ref(), Ok(&report));
        let failures = crate::suite::Suite::Topo.failures(&report);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn check_rejects_missing_cells_and_bad_probe() {
        let row = Point::new("topo=flat mode=base")
            .with("sim_ns", 1u64)
            .with("sim_ns_rerun", 1u64)
            .with("p50_ns", 500u64)
            .with("p99_ns", 900u64)
            .with("promoted", 10u64)
            .with("demoted", 2u64)
            .with("region_promotions", 0u64)
            .with("shootdown_rounds", 12u64);
        let mut report = Report::new("topo")
            .fact("base_rounds", 512u64)
            .fact("huge_rounds", 2u64);
        report.points = vec![row];
        let failures = failures(&report).unwrap();
        assert!(failures.iter().any(|f| f.contains("missing sweep cell")));
        assert!(failures.iter().any(|f| f.contains("region probe")));
    }
}
