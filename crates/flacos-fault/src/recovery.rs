//! Recovery orchestration across a population of fault boxes.
//!
//! Ties the pipeline together: the FlacDK detector finds poisoned or
//! corrupted regions, the orchestrator maps each casualty to the *one*
//! fault box that owns it, and restores that box alone. The
//! [`BlastReport`] quantifies the paper's claim that vertical
//! consolidation "prevents a single failure from propagating to multiple
//! applications and enables efficient migration and recovery".

use crate::fault_box::FaultBox;
use crate::redundancy::Protection;
use flacdk::reliability::detect::{Detection, FaultDetector};
use rack_sim::{GAddr, NodeCtx, SimError};
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of one detection + recovery sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlastReport {
    /// Faulty regions detected.
    pub faults_detected: usize,
    /// Applications whose state was touched by recovery.
    pub boxes_recovered: Vec<u64>,
    /// Applications that were *not* disturbed.
    pub boxes_untouched: usize,
    /// Total bytes restored.
    pub restored_bytes: usize,
    /// Simulated nanoseconds the sweep took.
    pub sweep_ns: u64,
}

impl BlastReport {
    /// Fraction of applications disturbed (the failure radius).
    pub fn blast_radius(&self) -> f64 {
        let total = self.boxes_recovered.len() + self.boxes_untouched;
        if total == 0 {
            0.0
        } else {
            self.boxes_recovered.len() as f64 / total as f64
        }
    }
}

/// Detects faults and recovers exactly the owning fault boxes.
#[derive(Debug)]
pub struct RecoveryOrchestrator {
    detector: FaultDetector,
    /// app id -> (box, protection)
    boxes: HashMap<u64, (FaultBox, Protection)>,
    /// Policy-driven sync cells to repair after a node crash (delegation
    /// owner re-election + committed-op replay).
    sync_cells: Vec<Arc<dyn flacdk::sync::SyncRecover>>,
}

impl RecoveryOrchestrator {
    /// An orchestrator with no registered applications.
    pub fn new() -> Self {
        RecoveryOrchestrator {
            detector: FaultDetector::new(),
            boxes: HashMap::new(),
            sync_cells: Vec::new(),
        }
    }

    /// Attach a [`flacdk::sync::SyncCell`] so [`Self::handle_node_crash`]
    /// also repairs its coordination state: if the crashed node owned the
    /// cell's delegation, a survivor is elected and the committed op log
    /// drained, so no acknowledged update is lost.
    pub fn attach_sync(&mut self, cell: Arc<dyn flacdk::sync::SyncRecover>) {
        self.sync_cells.push(cell);
    }

    /// Register an application: guard every object of its box and attach
    /// its protection state.
    ///
    /// # Errors
    ///
    /// Propagates detector baseline errors.
    pub fn register(
        &mut self,
        ctx: &Arc<NodeCtx>,
        fbox: FaultBox,
        mut protection: Protection,
    ) -> Result<(), SimError> {
        for (obj_id, addr, len) in fbox.memory_objects() {
            self.detector
                .protect(ctx, Self::region_id(fbox.app_id(), obj_id), addr, len)?;
        }
        protection.tick(ctx, &fbox)?; // initial capture
        self.boxes.insert(fbox.app_id(), (fbox, protection));
        Ok(())
    }

    fn region_id(app_id: u64, obj_id: u64) -> u64 {
        app_id * 1_000_000 + obj_id
    }

    /// Acknowledge `app_id`'s legitimate state changes: run its
    /// protection tick, which reads every object once and copies only the
    /// changed ones, and re-baseline the detector from the capture's
    /// checksums. When the tick does not capture (period not elapsed, or
    /// execution-time protection), the detector re-reads the objects.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for unknown apps; propagates capture and
    /// memory errors.
    pub fn refresh(&mut self, ctx: &Arc<NodeCtx>, app_id: u64) -> Result<(), SimError> {
        let (fbox, protection) = self
            .boxes
            .get_mut(&app_id)
            .ok_or_else(|| SimError::Protocol(format!("unknown app {app_id}")))?;
        if protection.tick(ctx, fbox)? {
            Self::baseline_from_capture(&mut self.detector, fbox, protection)
        } else {
            for (obj_id, _, _) in fbox.memory_objects() {
                self.detector
                    .refresh(ctx, Self::region_id(app_id, obj_id))?;
            }
            Ok(())
        }
    }

    /// Set `fbox`'s detector baselines to the latest capture's checksums,
    /// without reading the objects: the caller knows they hold exactly
    /// the captured bytes.
    fn baseline_from_capture(
        detector: &mut FaultDetector,
        fbox: &FaultBox,
        protection: &Protection,
    ) -> Result<(), SimError> {
        let ckpt = protection
            .latest()
            .ok_or_else(|| SimError::Protocol("no checkpoint to baseline from".into()))?;
        for (obj_id, _, _) in fbox.memory_objects() {
            let entry = ckpt
                .entry(obj_id)
                .ok_or_else(|| SimError::Protocol(format!("object {obj_id} not in checkpoint")))?;
            detector.set_baseline(Self::region_id(fbox.app_id(), obj_id), entry.sum)?;
        }
        Ok(())
    }

    /// Access a registered box.
    pub fn fault_box(&self, app_id: u64) -> Option<&FaultBox> {
        self.boxes.get(&app_id).map(|(b, _)| b)
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether no applications are registered.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Scan every guarded region; recover each fault box that owns a
    /// faulty region, leaving all other applications untouched.
    ///
    /// # Errors
    ///
    /// Propagates scan/restore errors.
    pub fn sweep(&mut self, ctx: &Arc<NodeCtx>) -> Result<BlastReport, SimError> {
        let start = ctx.clock().now();
        let bad = self.detector.scan(ctx)?;
        let mut victims: Vec<u64> = Vec::new();
        for (region, detection) in &bad {
            let app_id = region / 1_000_000;
            if !victims.contains(&app_id) && self.boxes.contains_key(&app_id) {
                victims.push(app_id);
            }
            // Scrub poisoned ranges before restore.
            if let Detection::Poisoned { .. } = detection {
                if let Some((addr, len)) = self.detector.region_range(*region) {
                    ctx.global().scrub(addr, len);
                }
            }
        }
        let mut restored_bytes = 0;
        for app_id in &victims {
            let (fbox, protection) = self.boxes.get(app_id).expect("victim registered");
            restored_bytes += protection.restore_all(ctx, fbox)?;
        }
        // Re-baseline recovered regions.
        for app_id in victims.clone() {
            let (fbox, _) = self.boxes.get(&app_id).expect("victim registered");
            let objs = fbox.memory_objects();
            for (obj_id, _, _) in objs {
                self.detector
                    .refresh(ctx, Self::region_id(app_id, obj_id))?;
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "cold path: one bump each per sweep, which scans every guarded region"
        )]
        {
            let reg = ctx.stats().registry();
            reg.add("fault_box", "faults_detected", bad.len() as u64);
            reg.add("fault_box", "boxes_recovered", victims.len() as u64);
            reg.add("fault_box", "restored_bytes", restored_bytes as u64);
        }
        Ok(BlastReport {
            faults_detected: bad.len(),
            boxes_untouched: self.boxes.len() - victims.len(),
            boxes_recovered: victims,
            restored_bytes,
            sweep_ns: ctx.clock().now() - start,
        })
    }

    /// Graceful degradation after `crash_node`: every registered box
    /// homed on `crashed` is **re-elected** onto `ctx`'s node
    /// ([`FaultBox::adopt`]) and recovered in place. Its objects and its
    /// last capture both live in global memory, which outlives the dead
    /// CPU, so recovery validates instead of copying: each object is read
    /// once and compared with the capture's checksum, and only objects
    /// that differ (the dead node's unacknowledged writes) or read as
    /// poisoned are restored ([`Protection::restore_changed`]). The state
    /// then equals the capture, so the capture stays in force and the
    /// detector is re-baselined from its checksums without another read.
    /// Returns the re-homed app ids in ascending order.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeDown`] when the adopting node is itself down;
    /// [`SimError::Protocol`] when a box has no capture or a changed
    /// object's copy fails its checksum; propagates memory errors.
    pub fn handle_node_crash(
        &mut self,
        ctx: &Arc<NodeCtx>,
        crashed: rack_sim::NodeId,
    ) -> Result<Vec<u64>, SimError> {
        let mut victims: Vec<u64> = self
            .boxes
            .iter()
            .filter(|(_, (fbox, _))| fbox.home() == crashed)
            .map(|(app_id, _)| *app_id)
            .collect();
        victims.sort_unstable();
        for app_id in &victims {
            let (fbox, protection) = self.boxes.get_mut(app_id).expect("victim registered");
            fbox.adopt(ctx)?;
            protection.restore_changed(ctx, fbox)?;
            Self::baseline_from_capture(&mut self.detector, fbox, protection)?;
        }
        // Repair attached coordination cells: a crash mid-delegation must
        // not strand committed ops behind a dead owner. The cell itself
        // counts re-elections under the `sync` metrics subsystem.
        for cell in &self.sync_cells {
            cell.recover_after_crash(ctx, crashed)?;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "cold path: runs once per node crash"
        )]
        ctx.stats()
            .registry()
            .add("fault_box", "reelections", victims.len() as u64);
        Ok(victims)
    }

    /// Inject-and-measure helper for experiments: poison `len` bytes of
    /// `app_id`'s heap, then sweep.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for unknown apps.
    pub fn poison_app_heap(
        &self,
        ctx: &Arc<NodeCtx>,
        faults: &rack_sim::FaultInjector,
        app_id: u64,
        len: usize,
    ) -> Result<GAddr, SimError> {
        let (fbox, _) = self
            .boxes
            .get(&app_id)
            .ok_or_else(|| SimError::Protocol(format!("unknown app {app_id}")))?;
        // Heap objects start at id 2_000 (see fault_box module layout).
        let (_, addr, _) = fbox
            .memory_objects()
            .into_iter()
            .find(|(id, _, _)| *id >= 2_000 && *id < 3_000)
            .ok_or_else(|| SimError::Protocol("box has no heap".into()))?;
        faults.poison_memory(ctx.global(), addr, len, ctx.clock().now());
        Ok(addr)
    }
}

impl Default for RecoveryOrchestrator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_box::FaultBoxBuilder;
    use crate::redundancy::RedundancyPolicy;
    use flacdk::alloc::GlobalAllocator;
    use flacdk::reliability::checkpoint::CheckpointManager;
    use flacdk::sync::rcu::EpochManager;
    use flacos_mem::fault::FrameAllocator;
    use rack_sim::{Rack, RackConfig};

    fn setup(apps: usize) -> (Rack, RecoveryOrchestrator) {
        setup_with(
            RackConfig::small_test(),
            apps,
            RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 },
        )
    }

    fn setup_with(
        cfg: RackConfig,
        apps: usize,
        policy: RedundancyPolicy,
    ) -> (Rack, RecoveryOrchestrator) {
        let rack = Rack::new(cfg.with_global_mem(128 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let frames = FrameAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let mut orch = RecoveryOrchestrator::new();
        let n0 = rack.node(0);
        for app in 0..apps as u64 {
            let fbox = FaultBoxBuilder::new(app)
                .stack_pages(1)
                .heap_pages(1)
                .build(&n0, rack.global(), alloc.clone(), &frames, epochs.clone())
                .unwrap();
            fbox.space()
                .write(&n0, fbox.heap_va(0), format!("app-{app}").as_bytes())
                .unwrap();
            let protection = Protection::new(
                policy,
                CheckpointManager::new(alloc.clone(), epochs.clone()),
            );
            orch.register(&n0, fbox, protection).unwrap();
        }
        (rack, orch)
    }

    /// `app`'s heap prefix as `node` reads it.
    fn heap_prefix(orch: &RecoveryOrchestrator, node: &Arc<NodeCtx>, app: u64) -> [u8; 5] {
        let fbox = orch.fault_box(app).unwrap();
        let mut buf = [0u8; 5];
        fbox.space().read(node, fbox.heap_va(0), &mut buf).unwrap();
        buf
    }

    /// Address of object `obj` of `app`, and of its copy in the latest
    /// capture.
    fn object_and_copy(orch: &RecoveryOrchestrator, app: u64, obj: u64) -> (GAddr, GAddr) {
        let (fbox, protection) = &orch.boxes[&app];
        let (_, addr, _) = fbox
            .memory_objects()
            .into_iter()
            .find(|(id, _, _)| *id == obj)
            .unwrap();
        (addr, protection.latest().unwrap().entry(obj).unwrap().copy)
    }

    /// Heap and stack object ids (see the fault-box object namespace).
    const HEAP: u64 = 2_000;
    const STACK: u64 = 1_000;

    use crate::redundancy::Protection;

    #[test]
    fn clean_sweep_touches_nothing() {
        let (rack, mut orch) = setup(4);
        let report = orch.sweep(&rack.node(0)).unwrap();
        assert_eq!(report.faults_detected, 0);
        assert!(report.boxes_recovered.is_empty());
        assert_eq!(report.boxes_untouched, 4);
        assert_eq!(report.blast_radius(), 0.0);
    }

    #[test]
    fn fault_in_one_app_recovers_only_that_app() {
        let (rack, mut orch) = setup(4);
        let n0 = rack.node(0);
        orch.poison_app_heap(&n0, rack.faults(), 2, 64).unwrap();

        let report = orch.sweep(&n0).unwrap();
        assert_eq!(report.faults_detected, 1);
        assert_eq!(report.boxes_recovered, vec![2]);
        assert_eq!(report.boxes_untouched, 3);
        assert!(report.blast_radius() <= 0.25 + f64::EPSILON);
        assert!(report.restored_bytes > 0);
        assert!(report.sweep_ns > 0);

        // The recovered app's data is intact again.
        let fbox = orch.fault_box(2).unwrap();
        let mut buf = [0u8; 5];
        fbox.space().read(&n0, fbox.heap_va(0), &mut buf).unwrap();
        assert_eq!(&buf, b"app-2");
    }

    #[test]
    fn sweep_is_idempotent_after_recovery() {
        let (rack, mut orch) = setup(3);
        let n0 = rack.node(0);
        orch.poison_app_heap(&n0, rack.faults(), 0, 32).unwrap();
        orch.sweep(&n0).unwrap();
        let second = orch.sweep(&n0).unwrap();
        assert_eq!(second.faults_detected, 0, "recovered + re-baselined");
    }

    #[test]
    fn multiple_faults_multiple_victims() {
        let (rack, mut orch) = setup(5);
        let n0 = rack.node(0);
        orch.poison_app_heap(&n0, rack.faults(), 1, 16).unwrap();
        orch.poison_app_heap(&n0, rack.faults(), 3, 16).unwrap();
        let report = orch.sweep(&n0).unwrap();
        let mut victims = report.boxes_recovered.clone();
        victims.sort_unstable();
        assert_eq!(victims, vec![1, 3]);
        assert_eq!(report.boxes_untouched, 3);
    }

    #[test]
    fn node_crash_reelects_boxes_onto_survivor() {
        let (rack, mut orch) = setup(3);
        let n1 = rack.node(1);
        rack.faults().crash_node(rack_sim::NodeId(0), 0);

        let rehomed = orch.handle_node_crash(&n1, rack_sim::NodeId(0)).unwrap();
        assert_eq!(rehomed, vec![0, 1, 2]);
        for app in 0..3u64 {
            let fbox = orch.fault_box(app).unwrap();
            assert_eq!(fbox.home(), n1.id(), "re-elected onto the survivor");
            let mut buf = [0u8; 5];
            fbox.space().read(&n1, fbox.heap_va(0), &mut buf).unwrap();
            assert_eq!(&buf[..], format!("app-{app}").as_bytes());
        }
        // The recovered population keeps operating on the new home.
        let report = orch.sweep(&n1).unwrap();
        assert_eq!(report.faults_detected, 0);
    }

    #[test]
    fn node_crash_reelects_attached_sync_cells() {
        use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};

        #[derive(Debug, Default, Clone)]
        struct Counter(u64);
        impl SyncState for Counter {
            fn apply(&mut self, _op: &[u8]) {
                self.0 += 1;
            }
        }

        let (rack, mut orch) = setup(1);
        let (n0, n1) = (rack.node(0), rack.node(1));
        let cell = SyncCell::alloc(
            rack.global(),
            "test_counter",
            SyncCellConfig::new(rack.node_count(), SyncPolicy::Delegated),
            Counter::default(),
        )
        .unwrap();
        // Node 0 owns the delegation and commits ops before dying.
        cell.update(&n0, &[1]).unwrap();
        cell.update(&n0, &[1]).unwrap();
        assert_eq!(cell.owner_node(&n0).unwrap(), Some(rack_sim::NodeId(0)));
        orch.attach_sync(cell.clone());

        rack.faults().crash_node(rack_sim::NodeId(0), 0);
        orch.handle_node_crash(&n1, rack_sim::NodeId(0)).unwrap();

        // A survivor owns the cell and every committed op survived.
        assert_eq!(cell.owner_node(&n1).unwrap(), Some(n1.id()));
        assert_eq!(cell.read(&n1, |c| c.0).unwrap(), 2);
    }

    #[test]
    fn crash_of_foreign_node_rehomes_nothing() {
        let (rack, mut orch) = setup(2);
        let n0 = rack.node(0);
        let rehomed = orch.handle_node_crash(&n0, rack_sim::NodeId(1)).unwrap();
        assert!(rehomed.is_empty(), "no boxes lived on node 1");
        assert_eq!(orch.fault_box(0).unwrap().home(), n0.id());
    }

    #[test]
    fn refresh_prevents_false_positives_after_legit_writes() {
        let (rack, mut orch) = setup(2);
        let n0 = rack.node(0);
        {
            let fbox = orch.fault_box(0).unwrap();
            fbox.space()
                .write(&n0, fbox.heap_va(10), b"legit update")
                .unwrap();
        }
        orch.refresh(&n0, 0).unwrap();
        let report = orch.sweep(&n0).unwrap();
        assert_eq!(report.faults_detected, 0);
        assert_eq!(orch.len(), 2);
        assert!(!orch.is_empty());
    }

    #[test]
    fn crash_recovery_writes_only_the_scribbled_object() {
        let (rack, mut orch) = setup(2);
        let (n0, n1) = (rack.node(0), rack.node(1));
        {
            let fbox = orch.fault_box(1).unwrap();
            fbox.space()
                .write(&n0, fbox.heap_va(0), b"unacknowledged")
                .unwrap();
        }
        rack.faults().crash_node(n0.id(), 0);
        let before = n1.stats().snapshot();
        assert_eq!(orch.handle_node_crash(&n1, n0.id()).unwrap(), vec![0, 1]);
        let after = n1.stats().snapshot();
        // Six objects validated by reading them; one restored: one read of
        // its copy and one write of the page.
        assert_eq!(after.global_writes - before.global_writes, 1);
        assert_eq!(after.global_reads - before.global_reads, 6 + 1);
        assert_eq!(&heap_prefix(&orch, &n1, 1), b"app-1");
        assert_eq!(&heap_prefix(&orch, &n1, 0), b"app-0");
        assert_eq!(orch.sweep(&n1).unwrap().faults_detected, 0);
    }

    #[test]
    fn crash_recovery_restores_a_poisoned_object_in_place() {
        let (rack, mut orch) = setup(1);
        let (n0, n1) = (rack.node(0), rack.node(1));
        let (stack, _) = object_and_copy(&orch, 0, STACK);
        rack.faults().poison_memory(rack.global(), stack, 64, 0);
        rack.faults().crash_node(n0.id(), 0);
        orch.handle_node_crash(&n1, n0.id()).unwrap();
        let report = orch.sweep(&n1).unwrap();
        assert_eq!(report.faults_detected, 0, "poison scrubbed and restored");
        assert_eq!(&heap_prefix(&orch, &n1, 0), b"app-0");
    }

    #[test]
    fn crash_recovery_refuses_a_corrupt_copy_of_a_changed_object() {
        let (rack, mut orch) = setup(1);
        let (n0, n1) = (rack.node(0), rack.node(1));
        {
            let fbox = orch.fault_box(0).unwrap();
            fbox.space().write(&n0, fbox.heap_va(0), b"dirty").unwrap();
        }
        let (_, copy) = object_and_copy(&orch, 0, HEAP);
        n1.store_uncached_u64(copy, 0xdead).unwrap();
        rack.faults().crash_node(n0.id(), 0);
        assert!(matches!(
            orch.handle_node_crash(&n1, n0.id()),
            Err(SimError::Protocol(_))
        ));
        assert_eq!(
            &heap_prefix(&orch, &n1, 0),
            b"dirty",
            "the corrupt copy was never written back"
        );
    }

    #[test]
    fn crash_recovery_rolls_back_to_the_capture_when_the_baseline_is_newer() {
        let (rack, mut orch) = setup_with(
            RackConfig::small_test(),
            1,
            RedundancyPolicy::PeriodicCheckpoint {
                period_ns: u64::MAX,
            },
        );
        let (n0, n1) = (rack.node(0), rack.node(1));
        {
            let fbox = orch.fault_box(0).unwrap();
            fbox.space().write(&n0, fbox.heap_va(0), b"newer").unwrap();
        }
        // Inside the period: the detector re-baselines, the capture does
        // not move.
        orch.refresh(&n0, 0).unwrap();
        assert_eq!(orch.sweep(&n0).unwrap().faults_detected, 0);
        rack.faults().crash_node(n0.id(), 0);
        orch.handle_node_crash(&n1, n0.id()).unwrap();
        assert_eq!(&heap_prefix(&orch, &n1, 0), b"app-0", "rolled back");
        assert_eq!(orch.sweep(&n1).unwrap().faults_detected, 0);
    }

    #[test]
    fn adopter_crash_right_after_recovery_recovers_again() {
        let (rack, mut orch) = setup_with(
            RackConfig::n_node(3),
            2,
            RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 },
        );
        let (n0, n1, n2) = (rack.node(0), rack.node(1), rack.node(2));
        {
            let fbox = orch.fault_box(0).unwrap();
            fbox.space().write(&n0, fbox.heap_va(0), b"lost!").unwrap();
        }
        rack.faults().crash_node(n0.id(), 0);
        assert_eq!(orch.handle_node_crash(&n1, n0.id()).unwrap(), vec![0, 1]);
        {
            let fbox = orch.fault_box(1).unwrap();
            fbox.space().write(&n1, fbox.heap_va(0), b"lost?").unwrap();
        }
        rack.faults().crash_node(n1.id(), 0);
        assert_eq!(orch.handle_node_crash(&n2, n1.id()).unwrap(), vec![0, 1]);
        for app in 0..2u64 {
            assert_eq!(orch.fault_box(app).unwrap().home(), n2.id());
            assert_eq!(
                &heap_prefix(&orch, &n2, app),
                format!("app-{app}").as_bytes()
            );
        }
        assert_eq!(orch.sweep(&n2).unwrap().faults_detected, 0);
        // The recovered boxes keep acknowledging on their new home.
        {
            let fbox = orch.fault_box(0).unwrap();
            fbox.space().write(&n2, fbox.heap_va(0), b"v2-ok").unwrap();
        }
        orch.refresh(&n2, 0).unwrap();
        assert_eq!(orch.sweep(&n2).unwrap().faults_detected, 0);
    }

    #[test]
    fn refresh_baselines_from_the_capture_without_a_second_read() {
        let (rack, mut orch) = setup(1);
        let n0 = rack.node(0);
        {
            let fbox = orch.fault_box(0).unwrap();
            fbox.space().write(&n0, fbox.heap_va(0), b"next!").unwrap();
        }
        let (reads, writes) = {
            let s = n0.stats().snapshot();
            (s.global_reads, s.global_writes)
        };
        orch.refresh(&n0, 0).unwrap();
        let s = n0.stats().snapshot();
        // One epoch-word load (the capture's pin), then each of the
        // three objects once.
        assert_eq!(s.global_reads - reads, 1 + 3, "each object read once");
        assert_eq!(s.global_writes - writes, 1, "only the changed page copied");
        assert_eq!(orch.sweep(&n0).unwrap().faults_detected, 0);
    }
}
