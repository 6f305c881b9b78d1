//! The `Lock` backend: a global spinlock plus the non-coherent-fabric
//! flush discipline over the protected state's one line.

use super::{SyncCell, SyncState};
use rack_sim::{NodeCtx, SimError};

impl<T: SyncState> SyncCell<T> {
    /// Whole section under the fabric lock; the flush discipline
    /// (invalidate before read, write back after write) is what locking
    /// costs on a non-coherent fabric.
    pub(super) fn lock_pre_op(&self, ctx: &NodeCtx, is_read: bool) -> Result<(), SimError> {
        let lat = ctx.latency();
        let guard = self.lock.lock(ctx)?;
        if is_read {
            ctx.charge(lat.invalidate_line_ns + lat.global_read_ns);
        } else {
            ctx.charge(lat.invalidate_line_ns + lat.global_read_ns + lat.writeback_line_ns);
        }
        guard.unlock()?;
        Ok(())
    }
}
