//! Level-2 FlacDK library: synchronization interfaces.
//!
//! Paper §3.2: lock-based synchronization over rack-scale shared memory is
//! ineffective — locks hammer a few contended lines whose coherence must
//! then be maintained in software, on top of high fabric latency. FlacDK
//! implements the three lock-free families the paper identifies once,
//! as the policies of one facade, [`cell::SyncCell`]:
//!
//! * **Replication** ([`SyncPolicy::Replicated`] and
//!   [`SyncPolicy::NodeReplicated`]) — every node holds a local replica;
//!   a shared [`oplog::SharedOpLog`] carries mutations, replayed on each
//!   node. Reads are node-local; only writes touch the fabric.
//! * **Delegation** ([`SyncPolicy::Delegated`]) — one owner node executes
//!   every operation, with other nodes shipping requests over the
//!   interconnect.
//! * **Quiescence** ([`SyncPolicy::Rcu`]) — RCU-style multi-version
//!   updates. The epoch machinery in [`rcu`] and the retire list in
//!   [`reclaim`] free retired versions once no reader *and no checkpoint*
//!   can still reference them; [`crate::ds::radix::RadixTree`] is the
//!   multi-version structure built on them. Because readers always consume
//!   freshly-published blocks, the stale-cache-line problem turns into
//!   plain RCU version tracking (the "bounded incoherence" idea the paper
//!   cites).
//!
//! [`SyncPolicy::Lock`] — the baseline [`spinlock::GlobalSpinLock`] plus
//! the flush discipline — is kept for comparison and for rarely-contended
//! slow paths. [`SyncCell`] is the only synchronization implementation:
//! the file-system metadata journal and the socket name table are
//! `SyncPolicy::Replicated` cells like any other shared structure.

pub mod cell;
pub mod oplog;
pub mod rcu;
pub mod reclaim;
pub mod spinlock;

pub use cell::{
    AdaptiveConfig, CombineWindow, SyncCell, SyncCellConfig, SyncPolicy, SyncRecover, SyncState,
    FRAME_BYTES,
};
pub use oplog::SharedOpLog;
pub use rcu::{EpochManager, RcuHandle};
pub use reclaim::RetireList;
pub use spinlock::GlobalSpinLock;
