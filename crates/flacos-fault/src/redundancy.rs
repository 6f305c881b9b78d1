//! Adaptive redundancy: protection proportional to criticality.
//!
//! Paper §3.6: *"Based on user configuration and task criticality,
//! FlacOS adaptively employs different degree of reliability methods,
//! such as periodic check-pointing, partial replication, and n-modular
//! execution."*

use crate::fault_box::FaultBox;
use flacdk::reliability::checkpoint::{Checkpoint, CheckpointManager};
use flacdk::wire::checksum;
use rack_sim::{NodeCtx, SimError};
use std::sync::Arc;

/// How important a task is — drives the redundancy policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Criticality {
    /// Best-effort: cheap periodic checkpoints.
    Low,
    /// Important: keep a live partial replica of hot state.
    Medium,
    /// Mission-critical: execute n-modular and vote.
    High,
}

/// A concrete protection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundancyPolicy {
    /// Checkpoint the fault box every `period_ns` of simulated time.
    PeriodicCheckpoint {
        /// Interval between checkpoints.
        period_ns: u64,
    },
    /// Maintain `replicas` standby copies of the box's state.
    PartialReplication {
        /// Number of standby copies.
        replicas: u32,
    },
    /// Execute `n` times and take the majority result.
    NModular {
        /// Number of executions (odd).
        n: u32,
    },
}

impl RedundancyPolicy {
    /// The default policy for a criticality level.
    pub fn for_criticality(c: Criticality) -> Self {
        match c {
            Criticality::Low => RedundancyPolicy::PeriodicCheckpoint {
                period_ns: 10_000_000,
            },
            Criticality::Medium => RedundancyPolicy::PartialReplication { replicas: 1 },
            Criticality::High => RedundancyPolicy::NModular { n: 3 },
        }
    }
}

/// Runtime protection state for one fault box.
///
/// Captures live in global memory, so they outlive the node that took
/// them. Each capture reads every object once and copies only what
/// changed since the previous one ([`CheckpointManager::capture_over`]);
/// after a crash, [`Protection::restore_changed`] puts back only the
/// objects that no longer match the latest capture.
#[derive(Debug)]
pub struct Protection {
    policy: RedundancyPolicy,
    checkpoints: CheckpointManager,
    latest: Option<Checkpoint>,
    replicas: Vec<Checkpoint>,
    last_checkpoint_ns: u64,
}

impl Protection {
    /// Protect a box under `policy`, using `checkpoints` for snapshot
    /// storage.
    pub fn new(policy: RedundancyPolicy, checkpoints: CheckpointManager) -> Self {
        Protection {
            policy,
            checkpoints,
            latest: None,
            replicas: Vec::new(),
            last_checkpoint_ns: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RedundancyPolicy {
        self.policy
    }

    /// The most recent checkpoint, if any.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.latest.as_ref()
    }

    /// Standby replicas (partial replication).
    pub fn replicas(&self) -> &[Checkpoint] {
        &self.replicas
    }

    /// Run the policy's periodic work. For checkpoint policies this
    /// captures when the period elapsed; for replication it refreshes
    /// every standby copy (each over its own predecessor, so standbys
    /// never share storage with each other). Returns whether state was
    /// captured; the new [`Protection::latest`] then holds a checksum of
    /// every object's current content.
    ///
    /// A failed capture leaves the previous captures in force.
    ///
    /// # Errors
    ///
    /// Propagates capture errors.
    pub fn tick(&mut self, ctx: &Arc<NodeCtx>, fbox: &FaultBox) -> Result<bool, SimError> {
        match self.policy {
            RedundancyPolicy::PeriodicCheckpoint { period_ns } => {
                let now = ctx.clock().now();
                if self.latest.is_some() && now - self.last_checkpoint_ns < period_ns {
                    return Ok(false);
                }
                self.capture_checkpoint(ctx, fbox)?;
                Ok(true)
            }
            RedundancyPolicy::PartialReplication { replicas } => {
                // Capture every new standby before discarding any old one.
                let objects = fbox.memory_objects();
                let mut fresh = Vec::with_capacity(replicas as usize);
                for i in 0..replicas as usize {
                    let base = self.replicas.get(i);
                    match self.checkpoints.capture_over(ctx, base, &objects) {
                        Ok(ckpt) => fresh.push(ckpt),
                        Err(e) => {
                            for (j, ckpt) in fresh.into_iter().enumerate() {
                                self.checkpoints
                                    .discard_except(ctx, ckpt, self.replicas.get(j));
                            }
                            return Err(e);
                        }
                    }
                }
                let old = std::mem::replace(&mut self.replicas, fresh);
                for (i, ckpt) in old.into_iter().enumerate() {
                    self.checkpoints
                        .discard_except(ctx, ckpt, self.replicas.get(i));
                }
                // The first replica doubles as the restore source.
                self.latest = self.replicas.first().cloned();
                Ok(true)
            }
            RedundancyPolicy::NModular { .. } => Ok(false), // protection is execution-time
        }
    }

    fn capture_checkpoint(&mut self, ctx: &Arc<NodeCtx>, fbox: &FaultBox) -> Result<(), SimError> {
        let ckpt =
            self.checkpoints
                .capture_over(ctx, self.latest.as_ref(), &fbox.memory_objects())?;
        if let Some(old) = self.latest.replace(ckpt) {
            self.checkpoints
                .discard_except(ctx, old, self.latest.as_ref());
        }
        self.last_checkpoint_ns = ctx.clock().now();
        Ok(())
    }

    /// Capture protection state *now*, regardless of the periodic
    /// schedule — used at explicit consistency points (after an
    /// application commits important state). Crash recovery does not need
    /// it: [`Protection::restore_changed`] leaves the state equal to the
    /// surviving capture.
    ///
    /// # Errors
    ///
    /// Propagates capture errors.
    pub fn force_capture(&mut self, ctx: &Arc<NodeCtx>, fbox: &FaultBox) -> Result<(), SimError> {
        match self.policy {
            RedundancyPolicy::PeriodicCheckpoint { .. } => self.capture_checkpoint(ctx, fbox),
            RedundancyPolicy::PartialReplication { .. } => self.tick(ctx, fbox).map(|_| ()),
            RedundancyPolicy::NModular { .. } => Ok(()),
        }
    }

    /// Restore every object of `fbox` from the latest capture.
    /// Returns restored byte count.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when no capture exists; restore errors are
    /// propagated.
    pub fn restore_all(&self, ctx: &Arc<NodeCtx>, fbox: &FaultBox) -> Result<usize, SimError> {
        let ckpt = self
            .latest
            .as_ref()
            .ok_or_else(|| SimError::Protocol("no checkpoint to restore from".into()))?;
        let mut total = 0;
        for (id, _, _) in fbox.memory_objects() {
            total += self.checkpoints.restore(ctx, ckpt, id)?;
        }
        Ok(total)
    }

    /// Bring `fbox` back to the latest capture in place: read every
    /// object once and restore (through [`CheckpointManager::restore`],
    /// which verifies the copy and scrubs poison) only the objects whose
    /// checksum differs from the capture's or that read as poisoned.
    /// Afterwards every object equals the capture, which therefore needs
    /// no recapture: it stands for the state as of `ctx`'s clock, and the
    /// periodic schedule restarts there (an adopting node's clock may lag
    /// the dead home's). Returns the restored byte count.
    ///
    /// Reads go through `ctx`'s cache: the caller must already have
    /// dropped its cached view of the box ([`FaultBox::adopt`] does).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when no capture exists or a changed
    /// object's copy fails its checksum; memory errors are propagated.
    pub fn restore_changed(
        &mut self,
        ctx: &Arc<NodeCtx>,
        fbox: &FaultBox,
    ) -> Result<usize, SimError> {
        let ckpt = self
            .latest
            .as_ref()
            .ok_or_else(|| SimError::Protocol("no checkpoint to restore from".into()))?;
        let mut buf = Vec::new();
        let mut total = 0;
        for (id, addr, len) in fbox.memory_objects() {
            let entry = ckpt
                .entry(id)
                .ok_or_else(|| SimError::Protocol(format!("object {id} not in checkpoint")))?;
            buf.resize(len, 0);
            let intact = match ctx.read(addr, &mut buf) {
                Ok(()) => checksum(&buf) == entry.sum,
                Err(SimError::PoisonedMemory { .. }) => false,
                Err(e) => return Err(e),
            };
            if !intact {
                total += self.checkpoints.restore(ctx, ckpt, id)?;
            }
        }
        self.last_checkpoint_ns = ctx.clock().now();
        Ok(total)
    }

    /// The checkpoint manager backing this protection.
    pub fn checkpoints(&self) -> &CheckpointManager {
        &self.checkpoints
    }
}

/// Execute `f` `n` times and return the majority output (n-modular
/// redundancy). `f` receives the execution index; a correct
/// deterministic task ignores it, a faulty one may corrupt some runs.
///
/// # Errors
///
/// [`SimError::Protocol`] when no output reaches a strict majority.
pub fn nmr_execute(
    n: u32,
    mut f: impl FnMut(u32) -> Result<Vec<u8>, SimError>,
) -> Result<Vec<u8>, SimError> {
    let mut outputs: Vec<(Vec<u8>, u32)> = Vec::new();
    for i in 0..n {
        // A crashed replica (Err) simply casts no vote.
        if let Ok(out) = f(i) {
            if let Some(entry) = outputs.iter_mut().find(|(o, _)| *o == out) {
                entry.1 += 1;
            } else {
                outputs.push((out, 1));
            }
        }
    }
    outputs
        .into_iter()
        .find(|(_, votes)| *votes * 2 > n)
        .map(|(out, _)| out)
        .ok_or_else(|| SimError::Protocol("n-modular execution: no majority".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_box::{FaultBoxBuilder, CONTEXT_BYTES};
    use flacdk::alloc::GlobalAllocator;
    use flacdk::sync::rcu::EpochManager;
    use flacos_mem::addr::PAGE_SIZE;
    use flacos_mem::fault::FrameAllocator;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, FaultBox, CheckpointManager) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(64 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let frames = FrameAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let fbox = FaultBoxBuilder::new(1)
            .stack_pages(1)
            .heap_pages(1)
            .build(
                &rack.node(0),
                rack.global(),
                alloc.clone(),
                &frames,
                epochs.clone(),
            )
            .unwrap();
        (rack, fbox, CheckpointManager::new(alloc, epochs))
    }

    #[test]
    fn criticality_maps_to_policies() {
        assert!(matches!(
            RedundancyPolicy::for_criticality(Criticality::Low),
            RedundancyPolicy::PeriodicCheckpoint { .. }
        ));
        assert!(matches!(
            RedundancyPolicy::for_criticality(Criticality::Medium),
            RedundancyPolicy::PartialReplication { replicas: 1 }
        ));
        assert!(matches!(
            RedundancyPolicy::for_criticality(Criticality::High),
            RedundancyPolicy::NModular { n: 3 }
        ));
        assert!(Criticality::Low < Criticality::High);
    }

    #[test]
    fn periodic_checkpoint_respects_period() {
        let (rack, fbox, cm) = setup();
        let n0 = rack.node(0);
        let mut p = Protection::new(
            RedundancyPolicy::PeriodicCheckpoint {
                period_ns: 1_000_000,
            },
            cm,
        );
        assert!(p.tick(&n0, &fbox).unwrap(), "first tick always captures");
        assert!(!p.tick(&n0, &fbox).unwrap(), "inside the period");
        n0.charge(2_000_000);
        assert!(p.tick(&n0, &fbox).unwrap(), "period elapsed");
        assert!(p.latest().is_some());
    }

    #[test]
    fn checkpoint_then_restore_repairs_poisoned_heap() {
        let (rack, fbox, cm) = setup();
        let n0 = rack.node(0);
        fbox.space()
            .write(&n0, fbox.heap_va(0), b"precious")
            .unwrap();
        fbox.save_context(&n0, b"ctx").unwrap();
        let mut p = Protection::new(RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 }, cm);
        p.tick(&n0, &fbox).unwrap();

        // Poison the heap frame.
        let (_, heap_addr, _) = fbox.memory_objects()[2];
        rack.faults().poison_memory(rack.global(), heap_addr, 64, 0);

        let restored = p.restore_all(&n0, &fbox).unwrap();
        assert_eq!(restored, fbox.state_bytes());
        let mut buf = [0u8; 8];
        fbox.space().read(&n0, fbox.heap_va(0), &mut buf).unwrap();
        assert_eq!(&buf, b"precious");
    }

    #[test]
    fn partial_replication_keeps_standbys() {
        let (rack, fbox, cm) = setup();
        let n0 = rack.node(0);
        let mut p = Protection::new(RedundancyPolicy::PartialReplication { replicas: 2 }, cm);
        p.tick(&n0, &fbox).unwrap();
        assert_eq!(p.replicas().len(), 2);
        // Refresh replaces, not accumulates.
        p.tick(&n0, &fbox).unwrap();
        assert_eq!(p.replicas().len(), 2);
        assert!(p.latest().is_some());
    }

    /// Object `id`'s live address in `fbox`.
    fn object(fbox: &FaultBox, id: u64) -> rack_sim::GAddr {
        let (_, addr, _) = fbox
            .memory_objects()
            .into_iter()
            .find(|(obj, _, _)| *obj == id)
            .unwrap();
        addr
    }

    const HEAP: u64 = 2_000;
    const STACK: u64 = 1_000;

    #[test]
    fn failed_replication_tick_keeps_the_previous_replica_restorable() {
        let (rack, fbox, cm) = setup();
        let n0 = rack.node(0);
        fbox.space()
            .write(&n0, fbox.heap_va(0), b"acknowledged")
            .unwrap();
        let mut p = Protection::new(RedundancyPolicy::PartialReplication { replicas: 1 }, cm);
        assert!(p.tick(&n0, &fbox).unwrap());
        rack.faults()
            .poison_memory(rack.global(), object(&fbox, HEAP), 64, 0);
        assert!(p.tick(&n0, &fbox).is_err(), "a poisoned source fails");
        // A same-size block takes whatever the failed tick freed.
        let alloc = p.checkpoints().allocator().clone();
        let block = alloc.alloc(&n0, PAGE_SIZE).unwrap();
        n0.write(block, &[0xEE; PAGE_SIZE]).unwrap();
        n0.writeback(block, PAGE_SIZE);
        p.restore_all(&n0, &fbox)
            .expect("the previous replica is intact");
        let mut buf = [0u8; 12];
        fbox.space().read(&n0, fbox.heap_va(0), &mut buf).unwrap();
        assert_eq!(&buf, b"acknowledged");
    }

    #[test]
    fn recapture_shares_unchanged_copies_and_frees_only_the_replaced_one() {
        let (rack, fbox, cm) = setup();
        let n0 = rack.node(0);
        let mut p = Protection::new(RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 }, cm);
        p.tick(&n0, &fbox).unwrap();
        let first = p.latest().unwrap().clone();
        fbox.space().write(&n0, fbox.heap_va(0), b"v2").unwrap();
        n0.charge(1);
        assert!(p.tick(&n0, &fbox).unwrap());
        let second = p.latest().unwrap();
        assert_eq!(
            second.entry(STACK).unwrap().copy,
            first.entry(STACK).unwrap().copy,
            "unchanged stack shares the copy"
        );
        assert_ne!(
            second.entry(HEAP).unwrap().copy,
            first.entry(HEAP).unwrap().copy
        );
        let alloc = p.checkpoints().allocator();
        assert_eq!(alloc.free_count(PAGE_SIZE), 1, "only the old heap copy");
        assert_eq!(alloc.free_count(CONTEXT_BYTES), 0, "context copy shared");
        // The shared copies still verify on restore.
        rack.global().poison(object(&fbox, STACK), 64);
        rack.global().poison(object(&fbox, HEAP), 64);
        assert_eq!(p.restore_all(&n0, &fbox).unwrap(), fbox.state_bytes());
        let mut buf = [0u8; 2];
        fbox.space().read(&n0, fbox.heap_va(0), &mut buf).unwrap();
        assert_eq!(&buf, b"v2");
    }

    #[test]
    fn restore_changed_restores_exactly_the_scribbled_page() {
        let (rack, mut fbox, cm) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let mut p = Protection::new(RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 }, cm);
        fbox.space().write(&n0, fbox.heap_va(0), b"good").unwrap();
        p.tick(&n0, &fbox).unwrap();
        fbox.space().write(&n0, fbox.heap_va(0), b"bad!").unwrap();
        rack.faults().crash_node(n0.id(), 0);
        fbox.adopt(&n1).unwrap();
        assert_eq!(p.restore_changed(&n1, &fbox).unwrap(), PAGE_SIZE);
        assert_eq!(p.restore_changed(&n1, &fbox).unwrap(), 0, "now intact");
        let mut buf = [0u8; 4];
        fbox.space().read(&n1, fbox.heap_va(0), &mut buf).unwrap();
        assert_eq!(&buf, b"good");
    }

    #[test]
    fn restore_without_capture_fails() {
        let (rack, fbox, cm) = setup();
        let p = Protection::new(RedundancyPolicy::NModular { n: 3 }, cm);
        assert!(p.restore_all(&rack.node(0), &fbox).is_err());
    }

    #[test]
    fn nmr_votes_out_a_corrupt_run() {
        let out = nmr_execute(3, |i| {
            Ok(if i == 1 {
                b"corrupt".to_vec()
            } else {
                b"correct".to_vec()
            })
        })
        .unwrap();
        assert_eq!(out, b"correct");
    }

    #[test]
    fn nmr_survives_a_crashed_run() {
        let out = nmr_execute(3, |i| {
            if i == 0 {
                Err(SimError::Protocol("replica crashed".into()))
            } else {
                Ok(b"ok".to_vec())
            }
        })
        .unwrap();
        assert_eq!(out, b"ok");
    }

    #[test]
    fn nmr_without_majority_fails() {
        let result = nmr_execute(3, |i| Ok(vec![i as u8]));
        assert!(result.is_err());
    }
}
