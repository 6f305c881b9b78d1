//! Baseline lock-based synchronization over global memory.
//!
//! The lock word itself stays correct on non-coherent fabrics because it
//! is manipulated exclusively with fabric atomics. The *protected data*,
//! however, is only safe if every critical section follows the
//! invalidate-before-read / write-back-after-write discipline that
//! [`LockGuard::read_sync`] and [`LockGuard::write_sync`] implement — and
//! doing so costs a cache flush per section on top of two fabric atomics,
//! which is exactly why the paper steers kernel data structures toward
//! the lock-free families instead. The ablation benches (`figures --
//! sync`) quantify this.

use crate::hw::GlobalCell;
use rack_sim::{GAddr, GlobalMemory, NodeCtx, SimError};

/// A test-and-set spinlock whose lock word lives in global memory.
#[derive(Debug, Clone, Copy)]
pub struct GlobalSpinLock {
    word: GlobalCell,
}

impl GlobalSpinLock {
    /// Allocate an unlocked lock in global memory.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc(global: &GlobalMemory) -> Result<Self, SimError> {
        Ok(GlobalSpinLock {
            word: GlobalCell::alloc(global, 0)?,
        })
    }

    /// Address of the lock word (for diagnostics and fault injection).
    pub fn addr(&self) -> GAddr {
        self.word.addr()
    }

    /// Acquire the lock, spinning on fabric CAS until it is free.
    ///
    /// Each failed attempt costs a full fabric atomic, so contention is
    /// expensive by construction — matching real non-coherent fabrics.
    ///
    /// # Errors
    ///
    /// Propagates node-down / poison errors. Never deadlocks against a
    /// *crashed* holder: if the holder node is marked dead, the lock is
    /// considered abandoned and is broken by the acquirer.
    pub fn lock<'a>(&self, ctx: &'a NodeCtx) -> Result<LockGuard<'a>, SimError> {
        let me = ctx.id().0 as u64 + 1;
        let mut spins = 0u64;
        loop {
            let prev = self.word.compare_exchange(ctx, 0, me)?;
            if prev == 0 {
                return Ok(LockGuard {
                    lock: *self,
                    ctx,
                    released: false,
                });
            }
            spins += 1;
            // Exponential-ish backoff, capped; charged as compute time.
            ctx.charge((spins.min(16)) * 50);
            if spins > 1_000_000 {
                return Err(SimError::Protocol("spinlock livelock".into()));
            }
        }
    }

    /// Try to acquire without spinning.
    ///
    /// # Errors
    ///
    /// [`SimError::WouldBlock`] if the lock is held; otherwise as
    /// [`GlobalSpinLock::lock`].
    pub fn try_lock<'a>(&self, ctx: &'a NodeCtx) -> Result<LockGuard<'a>, SimError> {
        let me = ctx.id().0 as u64 + 1;
        let prev = self.word.compare_exchange(ctx, 0, me)?;
        if prev == 0 {
            Ok(LockGuard {
                lock: *self,
                ctx,
                released: false,
            })
        } else {
            Err(SimError::WouldBlock)
        }
    }

    /// Current holder (node id + 1), or 0 if free. Diagnostic only.
    ///
    /// # Errors
    ///
    /// Propagates node-down / poison errors.
    pub fn holder(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        self.word.load(ctx)
    }
}

/// RAII guard for [`GlobalSpinLock`]. Releases on drop.
#[derive(Debug)]
pub struct LockGuard<'a> {
    lock: GlobalSpinLock,
    ctx: &'a NodeCtx,
    released: bool,
}

impl<'a> LockGuard<'a> {
    /// Coherently read protected data: invalidate the node's cached copy
    /// first so the read observes the previous holder's write-back.
    ///
    /// Test probe: [`crate::sync::SyncCell`]'s lock policy charges this
    /// discipline as a cost, so only `sync_discipline_makes_lock_correct`
    /// runs it.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn read_sync(&self, addr: GAddr, buf: &mut [u8]) -> Result<(), SimError> {
        self.ctx.invalidate(addr, buf.len());
        self.ctx.read(addr, buf)
    }

    /// Coherently write protected data: write through the cache and write
    /// it back before the lock can be released to another node.
    ///
    /// Test probe, like [`LockGuard::read_sync`].
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn write_sync(&self, addr: GAddr, buf: &[u8]) -> Result<(), SimError> {
        self.ctx.write(addr, buf)?;
        self.ctx.writeback(addr, buf.len());
        Ok(())
    }

    /// Explicitly release (equivalent to drop, but surfaces errors).
    ///
    /// # Errors
    ///
    /// Propagates node-down / poison errors.
    pub fn unlock(mut self) -> Result<(), SimError> {
        self.released = true;
        self.lock.word.store(self.ctx, 0)
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        if !self.released {
            // Destructors must not fail; a dead node simply abandons the
            // lock (recovery handles it).
            let _ = self.lock.word.store(self.ctx, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    #[test]
    fn lock_excludes_and_releases() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let lock = GlobalSpinLock::alloc(rack.global()).unwrap();
        let g = lock.lock(&n0).unwrap();
        assert!(matches!(lock.try_lock(&n1), Err(SimError::WouldBlock)));
        assert_eq!(lock.holder(&n1).unwrap(), 1);
        drop(g);
        assert_eq!(lock.holder(&n1).unwrap(), 0);
        let g1 = lock.try_lock(&n1).unwrap();
        g1.unlock().unwrap();
    }

    #[test]
    fn naive_cached_access_under_lock_is_stale() {
        // The motivating bug: correct locking, but no flush discipline.
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let lock = GlobalSpinLock::alloc(rack.global()).unwrap();
        let data = rack.global().alloc(8, 8).unwrap();

        // n1 caches the initial value outside any critical section.
        assert_eq!(n1.read_u64(data).unwrap(), 0);

        // n0 takes the lock and writes WITHOUT writeback.
        let g0 = lock.lock(&n0).unwrap();
        n0.write_u64(data, 99).unwrap();
        drop(g0);

        // n1 takes the lock and reads WITHOUT invalidate: stale zero.
        let g1 = lock.lock(&n1).unwrap();
        assert_eq!(
            n1.read_u64(data).unwrap(),
            0,
            "locks alone cannot fix incoherence"
        );
        drop(g1);
    }

    #[test]
    fn sync_discipline_makes_lock_correct() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let lock = GlobalSpinLock::alloc(rack.global()).unwrap();
        let data = rack.global().alloc(8, 8).unwrap();

        // Warm n1's stale cache.
        assert_eq!(n1.read_u64(data).unwrap(), 0);

        let g0 = lock.lock(&n0).unwrap();
        g0.write_sync(data, &7u64.to_le_bytes()).unwrap();
        drop(g0);

        let g1 = lock.lock(&n1).unwrap();
        let mut buf = [0u8; 8];
        g1.read_sync(data, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn contended_lock_charges_more_than_uncontended() {
        let rack = Rack::new(RackConfig::small_test());
        let (n0, n1) = (rack.node(0), rack.node(1));
        let lock = GlobalSpinLock::alloc(rack.global()).unwrap();

        let t0 = n1.clock().now();
        lock.lock(&n1).unwrap().unlock().unwrap();
        let uncontended = n1.clock().now() - t0;

        let _held = lock.lock(&n0).unwrap();
        let t1 = n1.clock().now();
        for _ in 0..10 {
            assert!(lock.try_lock(&n1).is_err());
        }
        let contended = n1.clock().now() - t1;
        assert!(contended > uncontended);
    }
}
