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

use crate::report::{object_with, objects_with, parse_quick};

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
    /// Quick (CI smoke) or full (committed report) mode.
    pub quick: bool,
    /// Accesses before measurement starts (the daemon learns and
    /// migrates; the huge arm coalesces on its first tick).
    pub warmup: usize,
    /// Measured accesses per arm.
    pub measured: usize,
}

impl TopoScaleConfig {
    /// CI smoke sizing (~seconds).
    pub fn quick() -> Self {
        TopoScaleConfig {
            quick: true,
            warmup: 1000,
            measured: 2000,
        }
    }

    /// Committed-report sizing.
    pub fn full() -> Self {
        TopoScaleConfig {
            quick: false,
            warmup: 3000,
            measured: 5000,
        }
    }
}

/// One (topology, page-size mode) cell, run twice for the parity
/// fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoRow {
    /// `"flat"` (2-node switched) or `"pod"` (2 racks × 2 nodes).
    pub topo: String,
    /// `"base"` (4 KiB-only) or `"huge"` (region-granular).
    pub mode: String,
    /// Median access latency, ns.
    pub p50_ns: u64,
    /// Tail access latency, ns.
    pub p99_ns: u64,
    /// 4 KiB pages promoted into local DRAM.
    pub promoted: u64,
    /// 4 KiB pages demoted back to the global pool.
    pub demoted: u64,
    /// 2 MiB regions coalesced into huge local mappings.
    pub region_promotions: u64,
    /// TLB shootdown rounds the initiator issued (one per 4 KiB
    /// migration; one per 2 MiB region regardless of its 512 pages).
    pub shootdown_rounds: u64,
    /// Sum of measured latencies — the deterministic run fingerprint.
    pub total_ns: u64,
    /// The same fingerprint from an independent same-seed rerun.
    pub total_ns_rerun: u64,
}

impl TopoRow {
    /// Whether the fixed-seed rerun reproduced the run byte-identically.
    pub fn parity(&self) -> bool {
        self.total_ns == self.total_ns_rerun
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

/// One sweep cell: run the arm twice on fresh racks for the fixed-seed
/// parity fingerprint.
fn run_cell(cfg: TopoScaleConfig, topo: &str, huge: bool) -> TopoRow {
    let a = run_arm(cfg, topo, huge);
    let b = run_arm(cfg, topo, huge);
    TopoRow {
        topo: topo.to_string(),
        mode: if huge { "huge" } else { "base" }.to_string(),
        p50_ns: a.p50_ns,
        p99_ns: a.p99_ns,
        promoted: a.promoted,
        demoted: a.demoted,
        region_promotions: a.region_promotions,
        shootdown_rounds: a.shootdown_rounds,
        total_ns: a.total_ns,
        total_ns_rerun: b.total_ns,
    }
}

/// Run the topology × page-size sweep.
pub fn run_sweep(cfg: TopoScaleConfig) -> Vec<TopoRow> {
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

/// The invariants every report must hold (the `--gate`): the region
/// probe pins exactly 512 page-wise vs 1 region-wise shootdown rounds,
/// the huge arm beats the base arm's p50 and round count at the same
/// local-DRAM budget on every topology, and every fixed-seed rerun
/// reproduces byte-identically.
pub fn gate_failures(report: &TopoReport) -> Vec<String> {
    let (rows, probe) = (&report.rows, report.probe);
    let mut failures = Vec::new();
    if probe != (PAGES_PER_HUGE, 1) {
        failures.push(format!(
            "region probe: expected ({PAGES_PER_HUGE}, 1) shootdown rounds \
             (page-wise, region-wise), got ({}, {})",
            probe.0, probe.1
        ));
    }
    for row in rows {
        if !row.parity() {
            failures.push(format!(
                "{}/{}: fixed-seed rerun diverged ({} ns vs {} ns)",
                row.topo, row.mode, row.total_ns, row.total_ns_rerun
            ));
        }
    }
    for topo in ["flat", "pod"] {
        let base = rows.iter().find(|r| r.topo == topo && r.mode == "base");
        let huge = rows.iter().find(|r| r.topo == topo && r.mode == "huge");
        let (Some(base), Some(huge)) = (base, huge) else {
            failures.push(format!("{topo}: missing base/huge cell"));
            continue;
        };
        if huge.region_promotions < 1 {
            failures.push(format!("{topo}: huge arm coalesced no region"));
        }
        if base.region_promotions != 0 {
            failures.push(format!("{topo}: base arm must not coalesce regions"));
        }
        if huge.p50_ns >= base.p50_ns {
            failures.push(format!(
                "{topo}: huge p50 {} ns is not below base p50 {} ns at the same budget",
                huge.p50_ns, base.p50_ns
            ));
        }
        if huge.shootdown_rounds >= base.shootdown_rounds {
            failures.push(format!(
                "{topo}: huge arm issued {} shootdown rounds, base {} — \
                 region coalescing must cut rounds",
                huge.shootdown_rounds, base.shootdown_rounds
            ));
        }
    }
    failures
}

/// Render the committed JSON report (line-wise, no serde).
pub fn to_json(cfg: TopoScaleConfig, rows: &[TopoRow], probe: (u64, u64)) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"topo-scale\",\n");
    s.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    s.push_str(&format!("  \"pages\": {PAGES},\n"));
    s.push_str(&format!("  \"zipf_skew\": {SKEW},\n"));
    s.push_str(&format!("  \"budget_bytes\": {BUDGET_BYTES},\n"));
    s.push_str(&format!(
        "  \"probe\": {{\"base_rounds\": {}, \"huge_rounds\": {}}},\n",
        probe.0, probe.1
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"topo\": \"{}\", \"mode\": \"{}\", \"p50_ns\": {}, \"p99_ns\": {}, \
             \"promoted\": {}, \"demoted\": {}, \"region_promotions\": {}, \
             \"shootdown_rounds\": {}, \"total_ns\": {}, \"total_ns_rerun\": {}}}{}\n",
            r.topo,
            r.mode,
            r.p50_ns,
            r.p99_ns,
            r.promoted,
            r.demoted,
            r.region_promotions,
            r.shootdown_rounds,
            r.total_ns,
            r.total_ns_rerun,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// A parsed committed report.
#[derive(Debug)]
pub struct TopoReport {
    /// The sweep rows.
    pub rows: Vec<TopoRow>,
    /// `(base_rounds, huge_rounds)` from the region probe.
    pub probe: (u64, u64),
}

/// Parse a report produced by [`to_json`].
///
/// # Errors
///
/// Names the missing or malformed field.
pub fn parse_report(json: &str) -> Result<TopoReport, String> {
    parse_quick(json)?;
    let probe_obj = object_with(json, "base_rounds")?;
    let probe = (
        probe_obj.u64_field("base_rounds")?,
        probe_obj.u64_field("huge_rounds")?,
    );
    let mut rows = Vec::new();
    for obj in objects_with(json, "topo") {
        rows.push(TopoRow {
            topo: obj.str_field("topo")?,
            mode: obj.str_field("mode")?,
            p50_ns: obj.u64_field("p50_ns")?,
            p99_ns: obj.u64_field("p99_ns")?,
            promoted: obj.u64_field("promoted")?,
            demoted: obj.u64_field("demoted")?,
            region_promotions: obj.u64_field("region_promotions")?,
            shootdown_rounds: obj.u64_field("shootdown_rounds")?,
            total_ns: obj.u64_field("total_ns")?,
            total_ns_rerun: obj.u64_field("total_ns_rerun")?,
        });
    }
    if rows.is_empty() {
        return Err("no result rows".into());
    }
    Ok(TopoReport { rows, probe })
}

/// The committed report's own target: every (topology, mode) cell of
/// the sweep present.
pub fn target_failures(report: &TopoReport) -> Vec<String> {
    let mut failures = Vec::new();
    for (topo, mode) in [
        ("flat", "base"),
        ("flat", "huge"),
        ("pod", "base"),
        ("pod", "huge"),
    ] {
        if !report.rows.iter().any(|r| r.topo == topo && r.mode == mode) {
            failures.push(format!("missing sweep cell {topo}/{mode}"));
        }
    }
    failures
}

/// Run the region probe and the sweep, printing each row, and render
/// the report.
pub fn run(quick: bool) -> String {
    let cfg = if quick {
        TopoScaleConfig::quick()
    } else {
        TopoScaleConfig::full()
    };
    println!(
        "topo: {} mode, {} measured accesses per arm",
        if quick { "quick" } else { "full" },
        cfg.measured
    );
    let probe = region_probe();
    println!(
        "  region promotion: {} page-wise shootdown rounds vs {} ranged round",
        probe.0, probe.1
    );
    let rows = run_sweep(cfg);
    for r in &rows {
        println!(
            "  {:>4}/{:<4} p50={:>6} ns p99={:>6} ns promoted={:>4} regions={} \
             rounds={:>4} parity={}",
            r.topo,
            r.mode,
            r.p50_ns,
            r.p99_ns,
            r.promoted,
            r.region_promotions,
            r.shootdown_rounds,
            r.parity()
        );
    }
    to_json(cfg, &rows, probe)
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
        let cfg = TopoScaleConfig::quick();
        let rows = run_sweep(cfg);
        let probe = region_probe();
        let json = to_json(cfg, &rows, probe);
        let report = parse_report(&json).expect("parse");
        assert_eq!(report.rows, rows);
        assert_eq!(report.probe, probe);
        // The same rows from a full run pass the committed-report check.
        let full = json.replace("\"quick\": true", "\"quick\": false");
        let failures = crate::suite::Suite::Topo.check(&full);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn check_rejects_missing_cells_and_bad_probe() {
        let row = TopoRow {
            topo: "flat".into(),
            mode: "base".into(),
            p50_ns: 500,
            p99_ns: 900,
            promoted: 10,
            demoted: 2,
            region_promotions: 0,
            shootdown_rounds: 12,
            total_ns: 1,
            total_ns_rerun: 1,
        };
        let report = TopoReport {
            rows: vec![row],
            probe: (512, 2),
        };
        assert!(target_failures(&report)
            .iter()
            .any(|f| f.contains("missing sweep cell")));
        assert!(gate_failures(&report)
            .iter()
            .any(|f| f.contains("region probe")));
    }
}
