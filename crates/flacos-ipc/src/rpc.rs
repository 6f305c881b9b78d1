//! Migration-based RPC over shared code contexts.
//!
//! Paper §3.5: *"FlacOS optimizes RPC through thread migration model,
//! where the client invokes the server code by switching address space
//! without switching the thread. To enhance efficiency and flexibility,
//! FlacOS places the invoked service code context within shared memory
//! for the efficient sharing of RPC services among nodes."*
//!
//! In this simulation the [`RpcRegistry`] is the shared code context
//! table: any node can resolve a service id and execute the service *on
//! its own thread*, paying an address-space-switch cost instead of a
//! thread switch or a network round-trip. Service state must live in
//! global memory (services receive the caller's [`NodeCtx`]), which is
//! what makes the context valid from every node — and what enables fast
//! scale-out and snapshot-based thread creation ([`RpcRegistry::snapshot`]).

use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{Decoder, Encoder};
use rack_sim::{GlobalMemory, NodeCtx, SimError};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A service whose code context is shared rack-wide. State it touches
/// must live in global memory (accessed through the caller's `ctx`).
pub trait RpcService: Send + Sync {
    /// Execute one call on the *caller's* thread.
    fn invoke(&self, ctx: &NodeCtx, args: &[u8]) -> Result<Vec<u8>, SimError>;
}

impl<F> RpcService for F
where
    F: Fn(&NodeCtx, &[u8]) -> Result<Vec<u8>, SimError> + Send + Sync,
{
    fn invoke(&self, ctx: &NodeCtx, args: &[u8]) -> Result<Vec<u8>, SimError> {
        self(ctx, args)
    }
}

/// Cost of switching into/out of a service address space (page-table
/// base swap + TLB tax), charged on each side of a call.
pub const AS_SWITCH_NS: u64 = 180;

/// The shared membership table: which service ids are published. This is
/// the rack-visible part of the registry — resolved on every call, so it
/// is read-mostly and defaults to replication.
#[derive(Debug, Default, Clone)]
struct RpcTable {
    ids: BTreeSet<u64>,
}

const RPC_REGISTER: u8 = 0;

impl SyncState for RpcTable {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        let (Ok(tag), Ok(id)) = (d.u8(), d.u64()) else {
            return;
        };
        if tag == RPC_REGISTER {
            self.ids.insert(id);
        }
    }
}

fn rpc_op(tag: u8, id: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(tag).put_u64(id);
    e.into_vec()
}

/// The shared code-context table.
#[derive(Debug)]
pub struct RpcRegistry {
    /// Authoritative membership, resolved through the sync cell so a
    /// registration on one node is visible from every other.
    table: Arc<SyncCell<RpcTable>>,
    #[expect(
        clippy::disallowed_types,
        reason = "host-side trait objects for the shared code contexts; membership \
                  (the shared state) lives in `table` above"
    )]
    services: rack_sim::sync::Mutex<HashMap<u64, Arc<dyn RpcService>>>,
    calls: AtomicU64,
}

impl std::fmt::Debug for dyn RpcService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RpcService")
    }
}

impl RpcRegistry {
    /// An empty registry shared by `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc(global: &GlobalMemory, nodes: usize) -> Result<Arc<Self>, SimError> {
        Ok(Arc::new(RpcRegistry {
            table: SyncCell::alloc(
                global,
                "rpc_table",
                SyncCellConfig::new(nodes, SyncPolicy::Replicated),
                RpcTable::default(),
            )?,
            services: Default::default(),
            calls: AtomicU64::new(0),
        }))
    }

    /// Publish a service context under `id` (replaces any previous one).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn register(
        &self,
        ctx: &NodeCtx,
        id: u64,
        service: Arc<dyn RpcService>,
    ) -> Result<(), SimError> {
        self.table.update(ctx, &rpc_op(RPC_REGISTER, id))?;
        self.services.lock().insert(id, service);
        Ok(())
    }

    /// Number of registered contexts.
    pub fn len(&self) -> usize {
        self.table.peek(|t| t.ids.len())
    }

    /// Whether no services are registered.
    pub fn is_empty(&self) -> bool {
        self.table.peek(|t| t.ids.is_empty())
    }

    /// The sync cell guarding the membership table, as a recovery hook.
    pub fn sync_cell(&self) -> Arc<dyn flacdk::sync::SyncRecover> {
        self.table.clone()
    }

    /// Total calls served through this registry.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Migration-based call: switch into the service context on the
    /// caller's thread, run it, switch back. No messaging, no thread
    /// hand-off.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for unknown service ids; service errors
    /// are propagated.
    pub fn call(&self, ctx: &NodeCtx, id: u64, args: &[u8]) -> Result<Vec<u8>, SimError> {
        // Resolve through the shared table (the charged read); the trait
        // object itself comes from the host-side context store.
        let published = self.table.read(ctx, |t| t.ids.contains(&id))?;
        let service = if published {
            self.services.lock().get(&id).cloned()
        } else {
            None
        }
        .ok_or_else(|| SimError::Protocol(format!("unknown RPC service {id}")))?;
        ctx.charge(AS_SWITCH_NS);
        let result = service.invoke(ctx, args);
        ctx.charge(AS_SWITCH_NS);
        self.calls.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Snapshot a service context for fast replica creation (the §3.5
    /// "thread runtime snapshot"): the shared context is reference-
    /// counted, so a snapshot is O(1) and the clone can be registered
    /// under a new id for scale-out.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for unknown service ids.
    pub fn snapshot(&self, id: u64) -> Result<Arc<dyn RpcService>, SimError> {
        if !self.table.peek(|t| t.ids.contains(&id)) {
            return Err(SimError::Protocol(format!("unknown RPC service {id}")));
        }
        self.services
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| SimError::Protocol(format!("unknown RPC service {id}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flacdk::hw::GlobalCell;
    use rack_sim::{Rack, RackConfig};

    /// A counter service whose state lives in global memory, making the
    /// context valid from any node.
    struct CounterService {
        cell: GlobalCell,
    }

    impl RpcService for CounterService {
        fn invoke(&self, ctx: &NodeCtx, args: &[u8]) -> Result<Vec<u8>, SimError> {
            let delta =
                u64::from_le_bytes(args.try_into().map_err(|_| {
                    SimError::Protocol("counter service wants 8-byte delta".into())
                })?);
            let prev = self.cell.fetch_add(ctx, delta)?;
            Ok((prev + delta).to_le_bytes().to_vec())
        }
    }

    #[test]
    fn call_from_any_node_shares_state() {
        let rack = Rack::new(RackConfig::small_test());
        let reg = RpcRegistry::alloc(rack.global(), rack.node_count()).unwrap();
        let cell = GlobalCell::alloc(rack.global(), 0).unwrap();
        reg.register(&rack.node(0), 1, Arc::new(CounterService { cell }))
            .unwrap();

        let r0 = reg.call(&rack.node(0), 1, &5u64.to_le_bytes()).unwrap();
        assert_eq!(u64::from_le_bytes(r0.try_into().unwrap()), 5);
        // Same context, invoked from the other node, sees the state.
        let r1 = reg.call(&rack.node(1), 1, &3u64.to_le_bytes()).unwrap();
        assert_eq!(u64::from_le_bytes(r1.try_into().unwrap()), 8);
        assert_eq!(reg.calls(), 2);
    }

    #[test]
    fn call_charges_as_switch_not_network() {
        let rack = Rack::new(RackConfig::small_test());
        let reg = RpcRegistry::alloc(rack.global(), rack.node_count()).unwrap();
        reg.register(
            &rack.node(0),
            2,
            Arc::new(|_: &NodeCtx, _: &[u8]| Ok(vec![1])),
        )
        .unwrap();
        let n0 = rack.node(0);
        let msgs_before = n0.stats().snapshot().messages_sent;
        let t0 = n0.clock().now();
        reg.call(&n0, 2, b"").unwrap();
        assert_eq!(
            n0.stats().snapshot().messages_sent,
            msgs_before,
            "no messaging"
        );
        assert!(n0.clock().now() - t0 >= 2 * AS_SWITCH_NS);
    }

    #[test]
    fn unknown_service_fails() {
        let rack = Rack::new(RackConfig::small_test());
        let reg = RpcRegistry::alloc(rack.global(), rack.node_count()).unwrap();
        assert!(reg.call(&rack.node(0), 99, b"").is_err());
        assert!(reg.snapshot(99).is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn snapshot_scaleout_shares_context() {
        let rack = Rack::new(RackConfig::small_test());
        let reg = RpcRegistry::alloc(rack.global(), rack.node_count()).unwrap();
        let cell = GlobalCell::alloc(rack.global(), 0).unwrap();
        reg.register(&rack.node(0), 1, Arc::new(CounterService { cell }))
            .unwrap();
        // Scale out: snapshot and register a second instance id.
        let snap = reg.snapshot(1).unwrap();
        reg.register(&rack.node(1), 2, snap).unwrap();
        assert_eq!(reg.len(), 2);
        reg.call(&rack.node(0), 1, &1u64.to_le_bytes()).unwrap();
        let via_clone = reg.call(&rack.node(1), 2, &1u64.to_le_bytes()).unwrap();
        assert_eq!(
            u64::from_le_bytes(via_clone.try_into().unwrap()),
            2,
            "same backing state"
        );
    }
}
