//! `SyncCell<T>` — one policy-driven facade over the §3.2 families.
//!
//! Every rack-shared kernel structure used to pick (or worse, inherit)
//! its synchronization method ad hoc; after this module they all go
//! through one audited abstraction. A [`SyncCell`] wraps a deterministic
//! state machine (a [`SyncState`]) behind a uniform
//! `read(|&T|)/update(op)` interface whose *backend* — locking,
//! replication, delegation, node replication, or RCU — is chosen per
//! structure at construction ([`SyncPolicy`]) and can be re-tuned at
//! runtime from the observed read/write mix ([`AdaptiveConfig`],
//! hysteresis included).
//!
//! The design centers on a committed-operation log:
//!
//! * Every update is first **committed** to a [`SharedOpLog`] in global
//!   memory and only then folded into the state. Entries carry a uniform
//!   `[node u32][seq u32]` frame so recovery can deduplicate re-appended
//!   publications. The log is therefore the source of truth: a policy
//!   switch drains to the log tail before flipping (epoch-quiesced — no
//!   committed op is lost or reordered), and crash recovery
//!   ([`SyncCell::on_node_crash`], [`SyncCell::replay`]) re-elects the
//!   delegation owner or flat-combining combiner and replays the tail.
//! * Per-policy behavior differs in which fabric operations wrap the
//!   commit, and lives in one module per backend: `lock`,
//!   `replicated`, `delegated`, `rcu`, and `node_replicated`
//!   (flat-combined batched appends + per-node lazy replicas).
//!
//! Observability rides the PR-1 metrics layer: per-policy op counts,
//! policy-switch events, and delegation queue depth land in the `sync/*`
//! counter registry and surface in `Rack::metrics_report()`.

mod adaptive;
mod delegated;
mod lock;
mod node_replicated;
mod rcu;
mod replicated;

pub use adaptive::{AdaptiveConfig, AdaptivePolicy};
pub use node_replicated::CombineWindow;

use crate::hw::GlobalCell;
use crate::sync::oplog::SharedOpLog;
use crate::sync::spinlock::GlobalSpinLock;
use node_replicated::Replica;
use rack_sim::metrics::Counter;
use rack_sim::{GAddr, GlobalMemory, NodeCtx, NodeId, SimError, LINE_SIZE};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A deterministic state machine managed by a [`SyncCell`].
///
/// `apply` must be a pure function of `(state, op)`: replaying the same
/// committed op sequence from the same initial state must reproduce the
/// same final state on any node (that is what makes policy switches and
/// crash recovery lossless). Malformed ops must be ignored, not panic.
/// `Clone` materializes per-node replicas for the node-replicated
/// backend (a clone is a consistent snapshot at a log position).
pub trait SyncState: Send + Clone + std::fmt::Debug + 'static {
    /// Fold one committed operation into the state.
    fn apply(&mut self, op: &[u8]);
}

/// The synchronization backend a [`SyncCell`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Baseline global spinlock + flush discipline (rarely-contended
    /// slow paths; kept honest for comparison).
    Lock,
    /// NR-style replication: node-local reads after a log tail check;
    /// every node replays foreign mutations. Best read-mostly.
    Replicated,
    /// ffwd-style delegation: one owner node executes all operations;
    /// remote nodes ship requests over the message fabric. Best
    /// write-heavy with a single hot writer.
    Delegated,
    /// Epoch/RCU multi-version: constant-cost reads off a version cell;
    /// writes pay a publish. Best scan-heavy.
    Rcu,
    /// Flat-combined node replication: writers publish into per-node
    /// slots, one crash-re-electable combiner appends the whole batch
    /// with a single fabric CAS, and reads come off per-node lazy
    /// replicas. Best write-heavy with writers spread across nodes.
    NodeReplicated,
}

impl SyncPolicy {
    /// Stable numeric encoding (for the policy mirror cell).
    pub fn encode(self) -> u64 {
        match self {
            SyncPolicy::Lock => 0,
            SyncPolicy::Replicated => 1,
            SyncPolicy::Delegated => 2,
            SyncPolicy::Rcu => 3,
            SyncPolicy::NodeReplicated => 4,
        }
    }

    /// Inverse of [`SyncPolicy::encode`] (unknown values read as Lock,
    /// the conservative baseline).
    pub fn decode(v: u64) -> Self {
        match v {
            1 => SyncPolicy::Replicated,
            2 => SyncPolicy::Delegated,
            3 => SyncPolicy::Rcu,
            4 => SyncPolicy::NodeReplicated,
            _ => SyncPolicy::Lock,
        }
    }

    /// Human-readable label (also the `sync/ops_*` counter suffix).
    pub fn label(self) -> &'static str {
        match self {
            SyncPolicy::Lock => "lock",
            SyncPolicy::Replicated => "replicated",
            SyncPolicy::Delegated => "delegated",
            SyncPolicy::Rcu => "rcu",
            SyncPolicy::NodeReplicated => "node_replicated",
        }
    }

    fn ops_counter(self) -> &'static str {
        match self {
            SyncPolicy::Lock => "ops_lock",
            SyncPolicy::Replicated => "ops_replicated",
            SyncPolicy::Delegated => "ops_delegated",
            SyncPolicy::Rcu => "ops_rcu",
            SyncPolicy::NodeReplicated => "ops_node_replicated",
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Bytes of entry framing the cell prepends to every op: `[node u32]`
/// `[seq u32]`, little-endian. Recovery uses the pair as a dedup key so
/// a re-appended publication is never applied twice.
pub const FRAME_BYTES: usize = 8;

/// Prepend the `[node][seq]` frame to `op`.
fn frame_op(node: u32, seq: u32, op: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(FRAME_BYTES + op.len());
    v.extend_from_slice(&node.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(op);
    v
}

/// Split a framed payload into its dedup key and the raw op bytes.
/// `None` for malformed (too-short) payloads, which drains skip.
fn unframe(payload: &[u8]) -> Option<(u64, &[u8])> {
    if payload.len() < FRAME_BYTES {
        return None;
    }
    let node = u32::from_le_bytes(payload[0..4].try_into().ok()?);
    let seq = u32::from_le_bytes(payload[4..8].try_into().ok()?);
    Some(((u64::from(node) << 32) | u64::from(seq), &payload[8..]))
}

/// Construction parameters for a [`SyncCell`].
#[derive(Debug, Clone, Copy)]
pub struct SyncCellConfig {
    /// Nodes that may operate on the cell.
    pub nodes: usize,
    /// Committed-op log capacity in slots.
    pub log_capacity: usize,
    /// Log slot size in bytes (16 of which are slot metadata; another
    /// [`FRAME_BYTES`] of the payload are the cell's entry frame).
    pub entry_size: usize,
    /// Initial backend.
    pub policy: SyncPolicy,
    /// Enable the adaptive driver with these knobs.
    pub adaptive: Option<AdaptiveConfig>,
}

impl SyncCellConfig {
    /// Defaults: 4096-slot log of 64-byte entries, no adaptive driver.
    pub fn new(nodes: usize, policy: SyncPolicy) -> Self {
        SyncCellConfig {
            nodes,
            log_capacity: 4096,
            entry_size: 64,
            policy,
            adaptive: None,
        }
    }

    /// Override the committed-op log geometry.
    pub fn with_log(mut self, capacity: usize, entry_size: usize) -> Self {
        self.log_capacity = capacity;
        self.entry_size = entry_size;
        self
    }

    /// Enable runtime re-tuning.
    pub fn with_adaptive(mut self, cfg: AdaptiveConfig) -> Self {
        self.adaptive = Some(cfg);
        self
    }
}

/// Per-cell host-side state: the authoritative state machine plus the
/// per-node bookkeeping the cost model and the adaptive driver need.
#[derive(Debug)]
struct CellInner<T: SyncState> {
    state: T,
    /// Next log index to fold into `state`.
    applied: u64,
    /// Committed entries skipped because their appender crashed
    /// mid-publish (claimed-but-uncommitted holes).
    holes: u64,
    policy: SyncPolicy,
    /// Per-node replicated watermark (cost model for catch-up replay).
    synced: Vec<u64>,
    /// Cached delegation owner (kept in lock-step with the owner cell).
    owner_hint: usize,
    adaptive: Option<AdaptivePolicy>,
    /// Simulated delegation queue: remote requests since the owner last
    /// ran an operation (its "poll").
    queue_depth: u64,
    /// Largest queue depth observed.
    queue_peak: u64,
}

/// A `sync/*` counter the op paths bump.
#[derive(Debug, Clone, Copy)]
enum SyncCounter {
    /// `ops_<policy>`.
    Ops(SyncPolicy),
    DelegationQueued,
    DelegationQueueDepth,
    NrCombinerRemoteClaims,
}

impl SyncCounter {
    /// Counters per node in [`SyncCell`]'s handle table.
    const PER_NODE: usize = 8;

    /// Slot within a node's run of the handle table.
    fn index(self) -> usize {
        match self {
            SyncCounter::Ops(policy) => policy.encode() as usize,
            SyncCounter::DelegationQueued => 5,
            SyncCounter::DelegationQueueDepth => 6,
            SyncCounter::NrCombinerRemoteClaims => 7,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SyncCounter::Ops(policy) => policy.ops_counter(),
            SyncCounter::DelegationQueued => "delegation_queued",
            SyncCounter::DelegationQueueDepth => "delegation_queue_depth",
            SyncCounter::NrCombinerRemoteClaims => "nr_combiner_remote_claims",
        }
    }
}

/// A rack-shared structure behind one policy-driven synchronization
/// facade. Cheap to share: wrap in `Arc` and hand to every node.
#[derive(Debug)]
pub struct SyncCell<T: SyncState> {
    name: &'static str,
    log: SharedOpLog,
    /// Per-node applied watermarks in global memory (GC + recovery
    /// accounting; updated eagerly only by the replicated backend).
    applied_cells: Vec<GlobalCell>,
    /// Delegation owner, node id + 1 (0 = none elected yet).
    owner: GlobalCell,
    /// Mirror of the current policy for cross-node discovery.
    policy_cell: GlobalCell,
    /// Policy-switch epoch: bumped by every completed switch.
    switch_epoch: GlobalCell,
    /// RCU version cell (bumped per publish).
    version: GlobalCell,
    /// Serializes policy switches and the Lock backend.
    lock: GlobalSpinLock,
    /// Publication headers in global memory (flat combining): one line
    /// per node, back to back, then each node's overflow area.
    slots: GAddr,
    /// Bytes of one node's overflow area (packed bytes past the header's).
    spill_stride: usize,
    /// Largest framed payload a publication slot (and log entry) holds.
    slot_payload_cap: usize,
    /// Flat-combining claim word: node id + 1, 0 = free.
    combiner: GlobalCell,
    /// Serializes same-node publishers (one in-flight publication per
    /// node's slot).
    slot_locks: Vec<rack_sim::sync::Mutex<()>>,
    /// Lazily materialized per-node replicas (node-replicated reads).
    replicas: Vec<rack_sim::sync::Mutex<Option<Replica<T>>>>,
    /// Per-node publication sequence numbers (entry framing).
    seqs: Vec<AtomicU64>,
    /// Held `sync/*` counter handles, [`SyncCounter::PER_NODE`] per node
    /// (node-major), each registered in its node's registry on first
    /// use: a node's snapshot lists only the counters it bumped, and a
    /// bump is one relaxed atomic, not a registry lookup.
    counters: Box<[OnceLock<Counter>]>,
    inner: rack_sim::sync::Mutex<CellInner<T>>,
}

fn lines(bytes: usize) -> u64 {
    bytes.div_ceil(rack_sim::LINE_SIZE) as u64
}

/// Most entries one burst of [`SyncCell::replay`] reads. A from-scratch
/// replay walks the whole uncollected log, and one burst of it would need
/// a host buffer as large as the log (83 MB for 1.7 M entries of 48 B);
/// at 4 096 entries the buffer stays at a few hundred KiB and the extra
/// burst start-ups cost < 1 % of the replay's simulated time.
const REPLAY_BURST: u64 = 4096;

impl<T: SyncState> SyncCell<T> {
    /// Allocate the cell's fabric state and wrap `init`.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes == 0`.
    pub fn alloc(
        global: &GlobalMemory,
        name: &'static str,
        cfg: SyncCellConfig,
        init: T,
    ) -> Result<Arc<Self>, SimError> {
        assert!(cfg.nodes > 0, "a sync cell needs at least one node");
        let log = SharedOpLog::alloc(global, cfg.log_capacity, cfg.entry_size)?;
        let applied_cells = (0..cfg.nodes)
            .map(|_| GlobalCell::alloc(global, 0))
            .collect::<Result<Vec<_>, _>>()?;
        // Node 0 is the initial delegation owner until told otherwise.
        let owner = GlobalCell::alloc(global, 1)?;
        let policy_cell = GlobalCell::alloc(global, cfg.policy.encode())?;
        let switch_epoch = GlobalCell::alloc(global, 0)?;
        let version = GlobalCell::alloc(global, 0)?;
        let lock = GlobalSpinLock::alloc(global)?;
        let slot_payload_cap = SharedOpLog::payload_capacity(cfg.entry_size);
        // A publication is [state u64][len u64][packed framed ops]: its
        // header line holds the words and the first packed bytes, the
        // rest spills into the node's overflow area. The `nodes` header
        // lines sit back to back so one burst reads them all; one line per
        // node, so combiner flushes never alias. Sized so at least one
        // maximum-size framed op plus its pack header fits; the slack lets
        // publishers batch several smaller ops into one publication.
        let slot_stride =
            (16 + node_replicated::PACK_BYTES + slot_payload_cap).div_ceil(LINE_SIZE) * LINE_SIZE;
        let slots = global.alloc(cfg.nodes * slot_stride, LINE_SIZE)?;
        let combiner = GlobalCell::alloc(global, 0)?;
        Ok(Arc::new(SyncCell {
            name,
            log,
            applied_cells,
            owner,
            policy_cell,
            switch_epoch,
            version,
            lock,
            slots,
            spill_stride: slot_stride - LINE_SIZE,
            slot_payload_cap,
            combiner,
            slot_locks: (0..cfg.nodes)
                .map(|_| rack_sim::sync::Mutex::new(()))
                .collect(),
            replicas: (0..cfg.nodes)
                .map(|_| rack_sim::sync::Mutex::new(None))
                .collect(),
            seqs: (0..cfg.nodes).map(|_| AtomicU64::new(0)).collect(),
            counters: (0..cfg.nodes * SyncCounter::PER_NODE)
                .map(|_| OnceLock::new())
                .collect(),
            inner: rack_sim::sync::Mutex::new(CellInner {
                state: init,
                applied: 0,
                holes: 0,
                policy: cfg.policy,
                synced: vec![0; cfg.nodes],
                owner_hint: 0,
                adaptive: cfg.adaptive.map(AdaptivePolicy::new),
                queue_depth: 0,
                queue_peak: 0,
            }),
        }))
    }

    /// The cell's name (used in diagnostics and DESIGN.md tables).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current backend (host snapshot; authoritative between switches).
    pub fn policy(&self) -> SyncPolicy {
        self.inner.lock().policy
    }

    /// Completed policy switches (reads the fabric epoch cell).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn switch_epoch(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        self.switch_epoch.load(ctx)
    }

    /// The delegation owner currently elected, if any.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn owner_node(&self, ctx: &NodeCtx) -> Result<Option<NodeId>, SimError> {
        let w = self.owner.load(ctx)?;
        Ok(if w == 0 {
            None
        } else {
            Some(NodeId((w - 1) as usize))
        })
    }

    /// Committed operations so far (the log tail).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn committed(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        self.log.tail(ctx)
    }

    /// Peek at the state without charging simulated costs. Diagnostics
    /// and invariant checks only — kernel paths must use
    /// [`SyncCell::read`] so the policy's cost lands on the caller.
    pub fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.inner.lock().state)
    }

    /// Largest simulated delegation queue depth observed so far.
    pub fn queue_peak(&self) -> u64 {
        self.inner.lock().queue_peak
    }

    /// Where the authoritative state stands in the log: `(applied,
    /// holes)` — the next index it folds and how many uncommitted or
    /// malformed entries it skipped. Diagnostics, like [`SyncCell::peek`].
    pub fn fold_position(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.applied, inner.holes)
    }

    /// The committed-op log itself, for diagnostics and differential
    /// tests that read it entry by entry. Kernel paths go through
    /// [`SyncCell::update`]; an append made here bypasses the cell.
    pub fn op_log(&self) -> SharedOpLog {
        self.log
    }

    fn me(&self, ctx: &NodeCtx) -> usize {
        let id = ctx.id().0;
        assert!(
            id < self.applied_cells.len(),
            "cell {} sized for {} nodes, node id {}",
            self.name,
            self.applied_cells.len(),
            id
        );
        id
    }

    /// Next publication sequence number for `node`'s entry frames.
    fn next_seq(&self, node: usize) -> u32 {
        self.seqs[node].fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Add `delta` to `ctx`'s `sync/*` counter `which` (`ctx` already
    /// passed [`SyncCell::me`]'s range check).
    fn count(&self, ctx: &NodeCtx, which: SyncCounter, delta: u64) {
        self.counters[ctx.id().0 * SyncCounter::PER_NODE + which.index()]
            .get_or_init(|| ctx.stats().counter("sync", which.name()))
            .add(delta);
    }

    /// Fold committed entries `[inner.applied, target)` into the state,
    /// one invalidate and one burst read per contiguous log run.
    /// Claimed-but-uncommitted holes (appender crashed mid-publish) and
    /// malformed entries are skipped: their op was never acknowledged to
    /// anyone.
    ///
    /// The caller holds the host mutex and loaded `target` at or below
    /// the tail. Every append to the log happens under that mutex, so an
    /// uncommitted slot below `target` is never in flight — it is a sealed
    /// hole. [`SyncCell::gc`] advances the head only to `applied`, so
    /// `[applied, target)` lies inside the live window `[head, tail)` and
    /// the range needs no per-entry bounds check.
    fn drain_to(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        target: u64,
    ) -> Result<(), SimError> {
        let from = inner.applied;
        self.log.read_range(ctx, from, target, |idx, entry| {
            match entry.and_then(unframe) {
                Some((_, op)) => {
                    inner.state.apply(op);
                    ctx.charge(ctx.latency().local_write_ns);
                }
                None => inner.holes += 1,
            }
            inner.applied = idx + 1;
            ControlFlow::Continue(())
        })
    }

    /// Per-policy cost + fabric work for one operation. Returns whether
    /// the op ran remotely (shipped to a delegation owner).
    fn pre_op(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        me: usize,
        is_read: bool,
        op_len: usize,
    ) -> Result<bool, SimError> {
        match inner.policy {
            SyncPolicy::Lock => {
                self.lock_pre_op(ctx, is_read)?;
                Ok(false)
            }
            SyncPolicy::Replicated => {
                self.replicated_pre_op(ctx, inner, me)?;
                Ok(false)
            }
            SyncPolicy::Delegated => self.delegated_pre_op(ctx, inner, me, op_len),
            SyncPolicy::Rcu => {
                self.rcu_pre_op(ctx, is_read, op_len)?;
                Ok(false)
            }
            SyncPolicy::NodeReplicated => {
                // Writes take the flat-combining path before pre_op; only
                // linearization-sensitive reads land here.
                debug_assert!(is_read, "node-replicated writes use the combiner path");
                self.nr_read_pre_op(ctx, inner)?;
                Ok(false)
            }
        }
    }

    /// Adaptive bookkeeping after an op; performs the quiesced switch
    /// when the driver's hysteresis allows one.
    fn post_op(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        me: usize,
        is_read: bool,
        remote: bool,
    ) -> Result<(), SimError> {
        self.count(ctx, SyncCounter::Ops(inner.policy), 1);
        let current = inner.policy;
        let writer = if is_read { None } else { Some(me) };
        let target = match inner.adaptive.as_mut() {
            Some(driver) => driver.observe(current, is_read, remote, writer),
            None => None,
        };
        if let Some(target) = target {
            self.switch_locked(ctx, inner, target)?;
        }
        Ok(())
    }

    /// Read the state through the current policy (linearizable: the
    /// node-replicated backend catches up to the log tail first; see
    /// [`SyncCell::read_local`] for the zero-fabric replica path).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn read<R>(&self, ctx: &NodeCtx, f: impl FnOnce(&T) -> R) -> Result<R, SimError> {
        let me = self.me(ctx);
        let mut inner = self.inner.lock();
        let remote = self.pre_op(ctx, &mut inner, me, true, 0)?;
        ctx.charge(ctx.latency().local_read_ns);
        let out = f(&inner.state);
        self.post_op(ctx, &mut inner, me, true, remote)?;
        Ok(out)
    }

    /// Commit `op` to the log and fold it into the state.
    /// Returns the op's log index.
    ///
    /// # Errors
    ///
    /// Propagates log-full and memory errors; on error the state is
    /// unchanged and the op is not acknowledged.
    pub fn update(&self, ctx: &NodeCtx, op: &[u8]) -> Result<u64, SimError> {
        self.update_map(ctx, op, |_| ()).map(|(idx, ())| idx)
    }

    /// Commit `op`, fold it in, and run `f` on the **post-op** state
    /// atomically (flat-combining style: the caller derives its answer
    /// from the state the op produced, while replay needs only the op
    /// bytes). Returns `(log index, f's result)`.
    ///
    /// # Errors
    ///
    /// As [`SyncCell::update`].
    pub fn update_map<R>(
        &self,
        ctx: &NodeCtx,
        op: &[u8],
        f: impl FnOnce(&T) -> R,
    ) -> Result<(u64, R), SimError> {
        let me = self.me(ctx);
        {
            let inner = self.inner.lock();
            if inner.policy == SyncPolicy::NodeReplicated {
                drop(inner);
                return self.nr_update_map(ctx, op, f);
            }
        }
        let framed = frame_op(me as u32, self.next_seq(me), op);
        let mut inner = self.inner.lock();
        if inner.policy == SyncPolicy::NodeReplicated {
            // Lost a race with an adaptive switch; take the new path.
            drop(inner);
            return self.nr_update_map(ctx, op, f);
        }
        let remote = self.pre_op(ctx, &mut inner, me, false, op.len())?;
        let idx = self.log.append(ctx, &framed)?;
        // Fold any holes left by crashed appenders, then our own op.
        self.drain_to(ctx, &mut inner, idx)?;
        inner.state.apply(op);
        ctx.charge(ctx.latency().local_write_ns);
        inner.applied = idx + 1;
        inner.synced[me] = idx + 1;
        if inner.policy == SyncPolicy::Replicated {
            self.applied_cells[me].store(ctx, idx + 1)?;
        }
        let out = f(&inner.state);
        self.post_op(ctx, &mut inner, me, false, remote)?;
        Ok((idx, out))
    }

    /// The epoch-quiesced backend switch. Caller holds the host mutex;
    /// the fabric lock serializes against other nodes' switches.
    fn switch_locked(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        target: SyncPolicy,
    ) -> Result<bool, SimError> {
        if inner.policy == target {
            return Ok(false);
        }
        let guard = self.lock.lock(ctx)?;
        // Drain: every committed op folds in before the flip, so the
        // switch can neither lose nor reorder committed updates.
        let tail = self.log.tail(ctx)?;
        self.drain_to(ctx, inner, tail)?;
        // Quiesce: publish every node's watermark at the drained tail
        // and bump the switch epoch so late readers re-discover.
        for (i, cell) in self.applied_cells.iter().enumerate() {
            cell.store(ctx, inner.applied)?;
            inner.synced[i] = inner.applied;
        }
        if target == SyncPolicy::Delegated {
            // The switching node becomes the owner.
            let me = self.me(ctx);
            self.owner.store(ctx, me as u64 + 1)?;
            inner.owner_hint = me;
            inner.queue_depth = 0;
        }
        self.policy_cell.store(ctx, target.encode())?;
        self.switch_epoch.fetch_add(ctx, 1)?;
        inner.policy = target;
        guard.unlock()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "cold path: policy switches are rare control-plane events"
        )]
        ctx.stats().registry().add("sync", "policy_switch", 1);
        Ok(true)
    }

    /// Force the backend to `target` (quiesced drain included). Returns
    /// whether a switch happened.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn set_policy(&self, ctx: &NodeCtx, target: SyncPolicy) -> Result<bool, SimError> {
        let mut inner = self.inner.lock();
        self.switch_locked(ctx, &mut inner, target)
    }

    /// Crash recovery: drain the committed tail, re-elect the delegation
    /// owner if `crashed` held it, and — on the node-replicated backend —
    /// take over a dead combiner: the pending publications are drained with
    /// dedup against the committed log so no published op is lost or
    /// applied twice. Safe (and cheap) to call for any policy. Returns
    /// whether a re-election happened.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn on_node_crash(&self, ctx: &NodeCtx, crashed: NodeId) -> Result<bool, SimError> {
        let mut inner = self.inner.lock();
        let tail = self.log.tail(ctx)?;
        self.drain_to(ctx, &mut inner, tail)?;
        let mut reelected = false;
        if inner.policy == SyncPolicy::Delegated && inner.owner_hint == crashed.0 {
            reelected = self.delegated_recover(ctx, &mut inner, crashed)?;
        }
        if inner.policy == SyncPolicy::NodeReplicated {
            reelected = self.nr_recover(ctx, &mut inner, crashed)?;
        }
        Ok(reelected)
    }

    /// Rebuild a state from scratch by replaying every committed log
    /// entry (the recovery/verification path), one burst read per
    /// contiguous run of at most `REPLAY_BURST` entries. Returns the
    /// rebuilt state and the number of entries replayed (holes skipped).
    /// Only complete while the log has not been garbage collected.
    ///
    /// Holds the host mutex, as `SyncCell::drain_to` does: no append
    /// or GC runs meanwhile, so `[head, tail)` is settled.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn replay(&self, ctx: &NodeCtx, mut init: T) -> Result<(T, u64), SimError> {
        let _inner = self.inner.lock();
        let head = self.log.head(ctx)?;
        let tail = self.log.tail(ctx)?;
        let mut replayed = 0;
        let mut from = head;
        while from < tail {
            let to = tail.min(from + REPLAY_BURST);
            self.log.read_range(ctx, from, to, |_, entry| {
                if let Some((_, op)) = entry.and_then(unframe) {
                    init.apply(op);
                    replayed += 1;
                }
                ControlFlow::Continue(())
            })?;
            from = to;
        }
        Ok((init, replayed))
    }

    /// Release consumed log slots. Because the cell folds ops at commit
    /// time, everything up to `applied` is reclaimable — but a full
    /// [`SyncCell::replay`] is no longer possible past the new head, so
    /// long-running deployments trade replayability for bounded memory.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn gc(&self, ctx: &NodeCtx) -> Result<(), SimError> {
        let inner = self.inner.lock();
        if inner.applied > self.log.head(ctx)? {
            self.log.advance_head(ctx, inner.applied)?;
        }
        Ok(())
    }
}

/// Object-safe recovery hook: lets `flacos-fault`'s orchestrator route a
/// node crash through every registered cell without knowing its state
/// type.
pub trait SyncRecover: Send + Sync + std::fmt::Debug {
    /// The cell's diagnostic name.
    fn cell_name(&self) -> &'static str;

    /// Handle a node crash (re-election + committed-op drain).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn recover_after_crash(&self, ctx: &NodeCtx, crashed: NodeId) -> Result<bool, SimError>;
}

impl<T: SyncState> SyncRecover for SyncCell<T> {
    fn cell_name(&self) -> &'static str {
        self.name
    }

    fn recover_after_crash(&self, ctx: &NodeCtx, crashed: NodeId) -> Result<bool, SimError> {
        self.on_node_crash(ctx, crashed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    /// Toy state: an ordered map under `insert(k, v)` / `remove(k)` ops.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Kv {
        map: std::collections::BTreeMap<u64, u64>,
        ops: u64,
    }

    impl SyncState for Kv {
        fn apply(&mut self, op: &[u8]) {
            let mut d = crate::wire::Decoder::new(op);
            let (Ok(tag), Ok(k)) = (d.u8(), d.u64()) else {
                return;
            };
            match tag {
                0 => {
                    let Ok(v) = d.u64() else { return };
                    self.map.insert(k, v);
                }
                1 => {
                    self.map.remove(&k);
                }
                _ => {}
            }
            self.ops += 1;
        }
    }

    fn ins(k: u64, v: u64) -> Vec<u8> {
        let mut e = crate::wire::Encoder::new();
        e.put_u8(0).put_u64(k).put_u64(v);
        e.into_vec()
    }

    fn del(k: u64) -> Vec<u8> {
        let mut e = crate::wire::Encoder::new();
        e.put_u8(1).put_u64(k);
        e.into_vec()
    }

    fn cell(rack: &Rack, policy: SyncPolicy) -> Arc<SyncCell<Kv>> {
        SyncCell::alloc(
            rack.global(),
            "test_kv",
            SyncCellConfig::new(rack.node_count(), policy),
            Kv::default(),
        )
        .unwrap()
    }

    #[test]
    fn every_policy_reads_its_writes_cross_node() {
        for policy in [
            SyncPolicy::Lock,
            SyncPolicy::Replicated,
            SyncPolicy::Delegated,
            SyncPolicy::Rcu,
            SyncPolicy::NodeReplicated,
        ] {
            let rack = Rack::new(RackConfig::small_test());
            let c = cell(&rack, policy);
            c.update(&rack.node(0), &ins(1, 10)).unwrap();
            c.update(&rack.node(1), &ins(2, 20)).unwrap();
            c.update(&rack.node(0), &del(1)).unwrap();
            let snap = c
                .read(&rack.node(1), |kv| (kv.map.get(&2).copied(), kv.map.len()))
                .unwrap();
            assert_eq!(snap, (Some(20), 1), "{policy} lost an update");
            assert_eq!(c.committed(&rack.node(0)).unwrap(), 3);
        }
    }

    #[test]
    fn update_map_sees_post_op_state() {
        for policy in [SyncPolicy::Delegated, SyncPolicy::NodeReplicated] {
            let rack = Rack::new(RackConfig::small_test());
            let c = cell(&rack, policy);
            let (idx, len) = c
                .update_map(&rack.node(0), &ins(7, 70), |kv| kv.map.len())
                .unwrap();
            assert_eq!((idx, len), (0, 1), "{policy}");
        }
    }

    #[test]
    fn switch_preserves_state_and_bumps_epoch() {
        let rack = Rack::new(RackConfig::small_test());
        let c = cell(&rack, SyncPolicy::Replicated);
        let n0 = rack.node(0);
        for i in 0..10 {
            c.update(&n0, &ins(i, i * 2)).unwrap();
        }
        assert!(c.set_policy(&n0, SyncPolicy::Delegated).unwrap());
        assert_eq!(c.policy(), SyncPolicy::Delegated);
        assert_eq!(c.switch_epoch(&n0).unwrap(), 1);
        assert_eq!(c.owner_node(&n0).unwrap(), Some(rack_sim::NodeId(0)));
        // Nothing lost, nothing reordered.
        assert_eq!(c.read(&rack.node(1), |kv| kv.map.len()).unwrap(), 10);
        let (rebuilt, replayed) = c.replay(&n0, Kv::default()).unwrap();
        assert_eq!(replayed, 10);
        assert_eq!(c.peek(|kv| kv.map.clone()), rebuilt.map);
        // No-op switch does nothing.
        assert!(!c.set_policy(&n0, SyncPolicy::Delegated).unwrap());
        assert_eq!(c.switch_epoch(&n0).unwrap(), 1);
    }

    #[test]
    fn switch_through_node_replicated_preserves_state() {
        let rack = Rack::new(RackConfig::small_test());
        let c = cell(&rack, SyncPolicy::Delegated);
        let n0 = rack.node(0);
        for i in 0..8 {
            c.update(&n0, &ins(i, i)).unwrap();
        }
        assert!(c.set_policy(&n0, SyncPolicy::NodeReplicated).unwrap());
        for i in 8..16 {
            c.update(&rack.node((i % 2) as usize), &ins(i, i)).unwrap();
        }
        assert!(c.set_policy(&n0, SyncPolicy::Replicated).unwrap());
        assert_eq!(c.read(&n0, |kv| kv.map.len()).unwrap(), 16);
        let (rebuilt, replayed) = c.replay(&n0, Kv::default()).unwrap();
        assert_eq!(replayed, 16);
        assert_eq!(c.peek(|kv| kv.clone()), rebuilt);
    }

    #[test]
    fn replay_longer_than_one_burst_matches_the_state() {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(8 << 20));
        let c: Arc<SyncCell<Kv>> = SyncCell::alloc(
            rack.global(),
            "test_replay_bursts",
            SyncCellConfig::new(2, SyncPolicy::Delegated).with_log(2 * REPLAY_BURST as usize, 64),
            Kv::default(),
        )
        .unwrap();
        let n0 = rack.node(0);
        let n = REPLAY_BURST + 100;
        for i in 0..n {
            c.update(&n0, &ins(i % 64, i)).unwrap();
        }
        let reads = n0.stats().snapshot().global_reads;
        let (rebuilt, replayed) = c.replay(&n0, Kv::default()).unwrap();
        assert_eq!(replayed, n);
        assert_eq!(rebuilt, c.peek(Kv::clone));
        assert_eq!(
            n0.stats().snapshot().global_reads - reads,
            2 + 2,
            "head and tail probes, then two bounded bursts"
        );
    }

    #[test]
    fn owner_crash_reelects_and_keeps_committed_ops() {
        let rack = Rack::new(RackConfig::small_test());
        let c = cell(&rack, SyncPolicy::Delegated);
        let (n0, n1) = (rack.node(0), rack.node(1));
        c.update(&n1, &ins(1, 1)).unwrap();
        c.update(&n0, &ins(2, 2)).unwrap();
        rack.faults().crash_node(rack_sim::NodeId(0), 0);
        assert!(c.on_node_crash(&n1, rack_sim::NodeId(0)).unwrap());
        assert_eq!(c.owner_node(&n1).unwrap(), Some(rack_sim::NodeId(1)));
        // The new owner serves reads locally with all commits present.
        assert_eq!(c.read(&n1, |kv| kv.map.len()).unwrap(), 2);
        let (rebuilt, _) = c.replay(&n1, Kv::default()).unwrap();
        assert_eq!(rebuilt.map.len(), 2);
        // A crash of a non-owner is a no-op.
        assert!(!c.on_node_crash(&n1, rack_sim::NodeId(3)).unwrap());
    }

    #[test]
    fn adaptive_targets_write_tier_by_writer_spread() {
        // Multi-writer write-heavy → node replication (batched appends);
        // read-mostly → replication.
        let rack = Rack::new(RackConfig::small_test());
        let c: Arc<SyncCell<Kv>> = SyncCell::alloc(
            rack.global(),
            "test_adaptive",
            SyncCellConfig::new(2, SyncPolicy::Replicated).with_adaptive(AdaptiveConfig {
                window_ops: 16,
                confirm_windows: 2,
                ..AdaptiveConfig::default()
            }),
            Kv::default(),
        )
        .unwrap();
        let n0 = rack.node(0);
        for i in 0..64 {
            c.update(&rack.node((i % 2) as usize), &ins(i, i)).unwrap();
        }
        assert_eq!(
            c.policy(),
            SyncPolicy::NodeReplicated,
            "write-heavy from two nodes → flat-combined node replication"
        );
        assert!(c.switch_epoch(&n0).unwrap() >= 1);
        // Now read-mostly: the driver promotes back to replication.
        for i in 0..96 {
            if i % 10 == 0 {
                c.update(&n0, &ins(i, i)).unwrap();
            } else {
                c.read(&n0, |kv| kv.map.len()).unwrap();
            }
        }
        assert_eq!(
            c.policy(),
            SyncPolicy::Replicated,
            "read-mostly → replicate"
        );
        // State stayed intact across both switches.
        let (rebuilt, _) = c.replay(&n0, Kv::default()).unwrap();
        assert_eq!(c.peek(|kv| kv.map.clone()), rebuilt.map);
    }

    #[test]
    fn adaptive_single_writer_still_delegates() {
        let rack = Rack::new(RackConfig::small_test());
        let c: Arc<SyncCell<Kv>> = SyncCell::alloc(
            rack.global(),
            "test_adaptive_single",
            SyncCellConfig::new(2, SyncPolicy::Replicated).with_adaptive(AdaptiveConfig {
                window_ops: 16,
                confirm_windows: 2,
                ..AdaptiveConfig::default()
            }),
            Kv::default(),
        )
        .unwrap();
        let n0 = rack.node(0);
        for i in 0..64 {
            c.update(&n0, &ins(i, i)).unwrap();
        }
        assert_eq!(
            c.policy(),
            SyncPolicy::Delegated,
            "one hot writer → delegation, not batching"
        );
    }

    #[test]
    fn borderline_mix_does_not_thrash() {
        let rack = Rack::new(RackConfig::small_test());
        let c: Arc<SyncCell<Kv>> = SyncCell::alloc(
            rack.global(),
            "test_hysteresis",
            SyncCellConfig::new(2, SyncPolicy::Replicated).with_adaptive(AdaptiveConfig {
                window_ops: 16,
                ..AdaptiveConfig::default()
            }),
            Kv::default(),
        )
        .unwrap();
        let n0 = rack.node(0);
        // 70% reads sits inside the hysteresis band: no switch, ever.
        for i in 0..200u64 {
            if i % 10 < 3 {
                c.update(&n0, &ins(i, i)).unwrap();
            } else {
                c.read(&n0, |kv| kv.map.len()).unwrap();
            }
        }
        assert_eq!(c.switch_epoch(&n0).unwrap(), 0);
        assert_eq!(c.policy(), SyncPolicy::Replicated);
    }

    #[test]
    fn per_policy_costs_rank_as_designed() {
        // Reads: replication/RCU local-ish, delegation pays the fabric
        // round trip from a non-owner, locking pays atomics + flushes.
        let cost_of = |policy: SyncPolicy, read: bool| {
            let rack = Rack::new(RackConfig::small_test());
            let c = cell(&rack, policy);
            c.update(&rack.node(0), &ins(1, 1)).unwrap();
            let n1 = rack.node(1);
            c.read(&n1, |_| ()).unwrap(); // advance the watermarks
            let t0 = n1.clock().now();
            if read {
                c.read(&n1, |_| ()).unwrap();
            } else {
                c.update(&n1, &ins(2, 2)).unwrap();
            }
            n1.clock().now() - t0
        };
        let (r_repl, r_del, r_lock) = (
            cost_of(SyncPolicy::Replicated, true),
            cost_of(SyncPolicy::Delegated, true),
            cost_of(SyncPolicy::Lock, true),
        );
        assert!(r_repl < r_del, "synced replicated read beats a round trip");
        assert!(r_repl < r_lock, "replicated read beats lock + flushes");
    }

    #[test]
    fn queue_depth_tracks_remote_delegation() {
        let rack = Rack::new(RackConfig::small_test());
        let c = cell(&rack, SyncPolicy::Delegated);
        let (n0, n1) = (rack.node(0), rack.node(1));
        c.update(&n1, &ins(1, 1)).unwrap();
        c.update(&n1, &ins(2, 2)).unwrap();
        assert_eq!(c.queue_peak(), 2, "two remote requests queued");
        c.update(&n0, &ins(3, 3)).unwrap(); // owner op drains the queue
        c.update(&n1, &ins(4, 4)).unwrap();
        assert_eq!(c.queue_peak(), 2, "drained before the next request");
    }

    #[test]
    fn log_full_surfaces_not_corrupts() {
        let rack = Rack::new(RackConfig::small_test());
        let c: Arc<SyncCell<Kv>> = SyncCell::alloc(
            rack.global(),
            "test_full",
            SyncCellConfig::new(2, SyncPolicy::Delegated).with_log(4, 64),
            Kv::default(),
        )
        .unwrap();
        let n0 = rack.node(0);
        for i in 0..4 {
            c.update(&n0, &ins(i, i)).unwrap();
        }
        assert!(c.update(&n0, &ins(9, 9)).is_err(), "ring full");
        assert_eq!(c.peek(|kv| kv.map.len()), 4, "state untouched by the error");
        c.gc(&n0).unwrap();
        c.update(&n0, &ins(9, 9)).unwrap();
        assert_eq!(c.peek(|kv| kv.map.len()), 5);
    }

    #[test]
    #[should_panic(expected = "sized for")]
    fn op_from_unknown_node_panics() {
        let rack = Rack::new(RackConfig::n_node(3));
        let c: Arc<SyncCell<Kv>> = SyncCell::alloc(
            rack.global(),
            "test_sized",
            SyncCellConfig::new(2, SyncPolicy::Replicated).with_log(16, 64),
            Kv::default(),
        )
        .unwrap();
        let _ = c.read(&rack.node(2), |_| ());
    }

    #[test]
    fn unframe_rejects_every_strict_prefix_of_the_frame() {
        let framed = frame_op(3, 9, b"op-bytes");
        let key = (3u64 << 32) | 9;
        assert_eq!(unframe(&framed), Some((key, &b"op-bytes"[..])));
        for cut in 0..framed.len() {
            match unframe(&framed[..cut]) {
                None => assert!(cut < FRAME_BYTES, "cut {cut}: whole header rejected"),
                // The log entry's length, not the frame, delimits the op
                // body: past the header the key is intact and the op is
                // exactly the bytes before the cut.
                Some((k, op)) => {
                    assert!(cut >= FRAME_BYTES, "cut {cut}: partial header accepted");
                    assert_eq!((k, op), (key, &framed[FRAME_BYTES..cut]));
                }
            }
        }
    }
}
