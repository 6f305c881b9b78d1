//! The `Delegated` backend: one owner node executes every operation;
//! remote nodes ship requests over the message fabric (ffwd-style).

use super::{CellInner, SyncCell, SyncCounter, SyncState};
use rack_sim::{NodeCtx, NodeId, SimError};

impl<T: SyncState> SyncCell<T> {
    /// Returns whether the op ran remotely (shipped to the owner).
    pub(super) fn delegated_pre_op(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        me: usize,
        op_len: usize,
    ) -> Result<bool, SimError> {
        if me == inner.owner_hint {
            // Owner fast path: operations run in local memory; an op
            // also drains the simulated request queue.
            inner.queue_depth = 0;
            return Ok(false);
        }
        // Request + reply ride the message fabric.
        let lat = ctx.latency();
        let req = 24 + op_len;
        ctx.charge(lat.message_ns(1, req) + lat.message_ns(1, 16));
        ctx.charge(lat.local_read_ns + lat.local_write_ns);
        inner.queue_depth += 1;
        inner.queue_peak = inner.queue_peak.max(inner.queue_depth);
        self.count(ctx, SyncCounter::DelegationQueued, 1);
        self.count(ctx, SyncCounter::DelegationQueueDepth, inner.queue_depth);
        Ok(true)
    }

    /// Owner re-election after `crashed` died holding the partition.
    /// Caller has already drained the committed tail.
    pub(super) fn delegated_recover(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        crashed: NodeId,
    ) -> Result<bool, SimError> {
        let me = self.me(ctx);
        let dead = crashed.0 as u64 + 1;
        let prev = self.owner.compare_exchange(ctx, dead, me as u64 + 1)?;
        inner.owner_hint = if prev == dead {
            me
        } else {
            (prev - 1) as usize
        };
        inner.queue_depth = 0;
        #[expect(
            clippy::disallowed_methods,
            reason = "cold path: re-election only fires after an owner crash"
        )]
        ctx.stats().registry().add("sync", "reelections", 1);
        Ok(true)
    }
}
