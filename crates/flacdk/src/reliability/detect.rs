//! Fault detection: checksum guards over global-memory regions.
//!
//! Two fault classes are detected:
//!
//! * **Poisoned memory** — the fabric reports an uncorrectable error on
//!   access (our simulator returns [`rack_sim::SimError::PoisonedMemory`]).
//! * **Silent corruption** — the read succeeds but the content no longer
//!   matches the checksum recorded when the region was last known good
//!   (the paper cites fleet studies of silent data corruption).
//!
//! Detections feed the recovery manager, which scrubs and restores from
//! checkpoints.

use crate::wire::checksum;
use rack_sim::{GAddr, NodeCtx, SimError};
use std::collections::HashMap;

/// Result of scanning one guarded region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detection {
    /// Content matches its recorded checksum.
    Clean,
    /// Access faulted (uncorrectable/poisoned memory).
    Poisoned {
        /// First faulting address.
        addr: GAddr,
    },
    /// Content readable but checksum mismatch.
    Corrupted {
        /// Checksum recorded when last known good.
        expected: u64,
        /// Checksum of current content.
        actual: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Guarded {
    addr: GAddr,
    len: usize,
    sum: u64,
}

/// Checksum-based detector over a set of named regions.
#[derive(Debug, Default)]
pub struct FaultDetector {
    regions: HashMap<u64, Guarded>,
}

impl FaultDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_region(ctx: &NodeCtx, addr: GAddr, len: usize) -> Result<Vec<u8>, SimError> {
        ctx.invalidate(addr, len);
        let mut buf = vec![0u8; len];
        ctx.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Record the current content of `[addr, addr+len)` as known good
    /// under the name `region`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors (cannot baseline a faulty region).
    pub fn protect(
        &mut self,
        ctx: &NodeCtx,
        region: u64,
        addr: GAddr,
        len: usize,
    ) -> Result<(), SimError> {
        let buf = Self::read_region(ctx, addr, len)?;
        self.regions.insert(
            region,
            Guarded {
                addr,
                len,
                sum: checksum(&buf),
            },
        );
        Ok(())
    }

    /// Re-baseline `region` after a legitimate update.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for unknown regions; memory errors are
    /// propagated.
    pub fn refresh(&mut self, ctx: &NodeCtx, region: u64) -> Result<(), SimError> {
        let g = *self
            .regions
            .get(&region)
            .ok_or_else(|| SimError::Protocol(format!("unknown region {region}")))?;
        self.protect(ctx, region, g.addr, g.len)
    }

    /// Re-baseline `region` to a checksum the caller already holds (one
    /// taken with [`crate::wire::checksum`] over the region's current
    /// content, e.g. a checkpoint entry's), without re-reading it.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for unknown regions.
    pub fn set_baseline(&mut self, region: u64, sum: u64) -> Result<(), SimError> {
        let g = self
            .regions
            .get_mut(&region)
            .ok_or_else(|| SimError::Protocol(format!("unknown region {region}")))?;
        g.sum = sum;
        Ok(())
    }

    /// Check one region.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for unknown regions. Poison is *reported*,
    /// not returned as an error.
    pub fn check(&self, ctx: &NodeCtx, region: u64) -> Result<Detection, SimError> {
        let g = self
            .regions
            .get(&region)
            .ok_or_else(|| SimError::Protocol(format!("unknown region {region}")))?;
        match Self::read_region(ctx, g.addr, g.len) {
            Err(SimError::PoisonedMemory { addr }) => Ok(Detection::Poisoned { addr }),
            Err(e) => Err(e),
            Ok(buf) => {
                let actual = checksum(&buf);
                if actual == g.sum {
                    Ok(Detection::Clean)
                } else {
                    Ok(Detection::Corrupted {
                        expected: g.sum,
                        actual,
                    })
                }
            }
        }
    }

    /// Scan every guarded region, returning the non-clean ones.
    ///
    /// # Errors
    ///
    /// Propagates unexpected memory errors.
    pub fn scan(&self, ctx: &NodeCtx) -> Result<Vec<(u64, Detection)>, SimError> {
        let mut out = Vec::new();
        let mut ids: Vec<u64> = self.regions.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let d = self.check(ctx, id)?;
            if d != Detection::Clean {
                out.push((id, d));
            }
        }
        Ok(out)
    }

    /// The guarded address range of `region`, if known.
    pub fn region_range(&self, region: u64) -> Option<(GAddr, usize)> {
        self.regions.get(&region).map(|g| (g.addr, g.len))
    }

    /// Number of guarded regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are guarded.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, FaultDetector) {
        (Rack::new(RackConfig::small_test()), FaultDetector::new())
    }

    #[test]
    fn clean_region_stays_clean() {
        let (rack, mut det) = setup();
        let n0 = rack.node(0);
        let a = rack.global().alloc(128, 8).unwrap();
        n0.write(a, &[5; 128]).unwrap();
        n0.writeback(a, 128);
        det.protect(&n0, 1, a, 128).unwrap();
        assert_eq!(det.check(&n0, 1).unwrap(), Detection::Clean);
        assert!(det.scan(&n0).unwrap().is_empty());
    }

    #[test]
    fn poisoned_region_detected() {
        let (rack, mut det) = setup();
        let n0 = rack.node(0);
        let a = rack.global().alloc(128, 8).unwrap();
        det.protect(&n0, 1, a, 128).unwrap();
        rack.faults()
            .poison_memory(rack.global(), a.offset(64), 8, 0);
        match det.check(&n0, 1).unwrap() {
            Detection::Poisoned { addr } => assert_eq!(addr, a.offset(64)),
            other => panic!("expected poison, got {other:?}"),
        }
    }

    #[test]
    fn silent_corruption_detected() {
        let (rack, mut det) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let a = rack.global().alloc(64, 8).unwrap();
        det.protect(&n0, 2, a, 64).unwrap();
        // Bit flip without poison: another writer scribbles directly.
        n1.store_uncached_u64(a, 0xbad).unwrap();
        assert!(matches!(
            det.check(&n0, 2).unwrap(),
            Detection::Corrupted { .. }
        ));
        // Legitimate update + refresh re-baselines.
        det.refresh(&n0, 2).unwrap();
        assert_eq!(det.check(&n0, 2).unwrap(), Detection::Clean);
    }

    #[test]
    fn set_baseline_accepts_a_known_sum_without_reading() {
        let (rack, mut det) = setup();
        let (n0, n1) = (rack.node(0), rack.node(1));
        let a = rack.global().alloc(64, 8).unwrap();
        det.protect(&n0, 3, a, 64).unwrap();
        n1.store_uncached_u64(a, 7).unwrap();
        let mut now = [0u8; 64];
        rack.global().read_bytes(a, &mut now).unwrap();
        let reads = n0.stats().snapshot().global_reads;
        det.set_baseline(3, checksum(&now)).unwrap();
        assert_eq!(n0.stats().snapshot().global_reads, reads, "no read");
        assert_eq!(det.check(&n0, 3).unwrap(), Detection::Clean);
        assert!(det.set_baseline(4, 0).is_err(), "unknown region");
    }

    #[test]
    fn scan_reports_only_bad_regions_sorted() {
        let (rack, mut det) = setup();
        let n0 = rack.node(0);
        let a = rack.global().alloc(64, 8).unwrap();
        let b = rack.global().alloc(64, 8).unwrap();
        det.protect(&n0, 10, a, 64).unwrap();
        det.protect(&n0, 11, b, 64).unwrap();
        rack.faults().poison_memory(rack.global(), b, 8, 0);
        let bad = det.scan(&n0).unwrap();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, 11);
    }

    #[test]
    fn unknown_region_is_protocol_error() {
        let (rack, det) = setup();
        assert!(det.check(&rack.node(0), 99).is_err());
        assert!(det.is_empty());
    }
}
