//! Ablation A3 — fault-box isolation vs. whole-node recovery.
//!
//! K applications run in fault boxes; one suffers an uncorrectable
//! memory fault. With fault boxes, detection + recovery touches exactly
//! one application (blast radius 1/K). The baseline models today's
//! horizontally-aggregated state: the fault takes down the node, and
//! *every* application must be restored.

use flacdk::alloc::GlobalAllocator;
use flacdk::reliability::checkpoint::CheckpointManager;
use flacdk::sync::rcu::EpochManager;
use flacos_fault::fault_box::FaultBoxBuilder;
use flacos_fault::recovery::RecoveryOrchestrator;
use flacos_fault::redundancy::{Protection, RedundancyPolicy};
use flacos_mem::fault::FrameAllocator;
use rack_sim::{Rack, RackConfig, RackReport};

/// One measured configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultBoxRow {
    /// Applications on the node.
    pub apps: usize,
    /// Applications disturbed with fault boxes (always 1).
    pub disturbed_flacos: usize,
    /// Applications disturbed by whole-node recovery (always all).
    pub disturbed_baseline: usize,
    /// Recovery time with fault boxes (simulated ns).
    pub recovery_flacos_ns: u64,
    /// Recovery time restoring every app (simulated ns).
    pub recovery_baseline_ns: u64,
}

impl FaultBoxRow {
    /// Recovery-time reduction factor.
    pub fn speedup(&self) -> f64 {
        self.recovery_baseline_ns as f64 / self.recovery_flacos_ns.max(1) as f64
    }
}

fn build_orchestrator(rack: &Rack, apps: usize, heap_pages: usize) -> RecoveryOrchestrator {
    let alloc = GlobalAllocator::new(rack.global().clone());
    let frames = FrameAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), rack.node_count()).expect("epochs");
    let n0 = rack.node(0);
    let mut orch = RecoveryOrchestrator::new();
    for app in 0..apps as u64 {
        let fbox = FaultBoxBuilder::new(app)
            .stack_pages(1)
            .heap_pages(heap_pages)
            .build(&n0, rack.global(), alloc.clone(), &frames, epochs.clone())
            .expect("box");
        fbox.space()
            .write(&n0, fbox.heap_va(0), format!("state-{app}").as_bytes())
            .expect("state");
        let protection = Protection::new(
            RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 },
            CheckpointManager::new(alloc.clone(), epochs.clone()),
        );
        orch.register(&n0, fbox, protection).expect("register");
    }
    orch
}

/// Run one cell: `apps` applications, fault injected into one, with the
/// metrics of the fault-box path's rack.
pub fn run_cell(apps: usize) -> (FaultBoxRow, RackReport) {
    // Fault-box path: targeted detection + single-app recovery.
    let rack = Rack::new(RackConfig::small_test().with_global_mem(192 << 20));
    let mut orch = build_orchestrator(&rack, apps, 2);
    let n0 = rack.node(0);
    orch.poison_app_heap(&n0, rack.faults(), (apps / 2) as u64, 64)
        .expect("inject");
    let report = orch.sweep(&n0).expect("sweep");
    assert_eq!(
        report.boxes_recovered.len(),
        1,
        "fault box bounds the radius"
    );
    let recovery_flacos_ns = report.sweep_ns;
    let metrics = rack.metrics_report();

    // Baseline path: the same single fault, but horizontally aggregated
    // state means the whole node's applications restart — modeled by
    // poisoning every app's state (the node went down with all of it)
    // and restoring all of them.
    let rack = Rack::new(RackConfig::small_test().with_global_mem(192 << 20));
    let mut orch = build_orchestrator(&rack, apps, 2);
    let n0 = rack.node(0);
    let t0 = n0.clock().now();
    for app in 0..apps as u64 {
        orch.poison_app_heap(&n0, rack.faults(), app, 64)
            .expect("inject all");
    }
    orch.sweep(&n0).expect("sweep all");
    let recovery_baseline_ns = n0.clock().now() - t0;

    let row = FaultBoxRow {
        apps,
        disturbed_flacos: 1,
        disturbed_baseline: apps,
        recovery_flacos_ns,
        recovery_baseline_ns,
    };
    (row, metrics)
}

/// Run the app-count sweep, with the rack-wide metrics of the 8-app
/// fault-box path: operation counts, latency histograms, and the
/// `fault_box` build/recovery counters.
pub fn run() -> (Vec<FaultBoxRow>, RackReport) {
    crate::sweep([4usize, 8, 16], 8, run_cell)
}

/// Render the sweep.
pub fn report(rows: &[FaultBoxRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.apps.to_string(),
                format!("{}/{}", r.disturbed_flacos, r.apps),
                format!("{}/{}", r.disturbed_baseline, r.apps),
                crate::table::fmt_ns(r.recovery_flacos_ns),
                crate::table::fmt_ns(r.recovery_baseline_ns),
                format!("{:.1}x", r.speedup()),
            ]
        })
        .collect();
    format!(
        "Ablation A3: fault-box blast radius and recovery time\n\n{}",
        crate::table::render(
            &[
                "apps",
                "disturbed (fault box)",
                "disturbed (node restart)",
                "recovery (fault box)",
                "recovery (node restart)",
                "speedup"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_box_bounds_radius_and_beats_restart() {
        let (row, _) = run_cell(8);
        assert_eq!(row.disturbed_flacos, 1);
        assert_eq!(row.disturbed_baseline, 8);
        assert!(
            row.recovery_flacos_ns < row.recovery_baseline_ns,
            "targeted recovery ({}) must beat whole-node restore ({})",
            row.recovery_flacos_ns,
            row.recovery_baseline_ns
        );
    }

    #[test]
    fn speedup_grows_with_density() {
        let (small, _) = run_cell(4);
        let (big, _) = run_cell(16);
        assert!(
            big.speedup() > small.speedup(),
            "more co-located apps, bigger win"
        );
    }
}
