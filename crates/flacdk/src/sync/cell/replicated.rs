//! The `Replicated` backend: node-local reads after a tail check; every
//! node pays the replay of mutations it has not yet caught up with.

use super::{CellInner, SyncCell, SyncState};
use rack_sim::{NodeCtx, SimError};

impl<T: SyncState> SyncCell<T> {
    pub(super) fn replicated_pre_op(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        me: usize,
    ) -> Result<(), SimError> {
        let tail = self.log.tail(ctx)?;
        self.charge_catch_up(ctx, inner, me, tail)
    }

    /// Charge node `me`'s replicated catch-up replay from its watermark
    /// to `target`, touching the real log slots.
    pub(super) fn charge_catch_up(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        me: usize,
        target: u64,
    ) -> Result<(), SimError> {
        if inner.synced[me] >= target {
            return Ok(());
        }
        let head = self.log.head(ctx)?;
        if inner.synced[me] < head {
            // The entries this replica missed were garbage collected:
            // model a bulk snapshot fetch (one fabric read of the state's
            // line) instead of per-entry replay.
            let lat = ctx.latency();
            ctx.charge(lat.invalidate_line_ns + lat.local_write_ns + lat.global_read_ns);
            inner.synced[me] = head;
        }
        let mut idx = inner.synced[me];
        while idx < target {
            // The replica replays the committed entry: wire read + local
            // apply. The state itself was already folded at commit time;
            // this is the per-node cost of the replication family.
            let _ = self.log.read(ctx, idx)?;
            ctx.charge(ctx.latency().local_write_ns);
            idx += 1;
        }
        inner.synced[me] = target;
        self.applied_cells[me].store(ctx, target)?;
        Ok(())
    }
}
