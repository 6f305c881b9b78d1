//! # flacos-ipc — the FlacOS communication system (paper §3.5)
//!
//! Cross-node communication over shared memory, eliminating the
//! networking/RDMA overhead that disaggregated systems pay:
//!
//! * **Zero-copy IPC** ([`shm_buf`], [`channel`]) — payload bytes are
//!   written once into a shared buffer pool; only a small descriptor
//!   travels through an index ring. The receiver reads the payload in
//!   place from global memory. Streaming buffers need only the
//!   publish/consume cache-invalidation discipline (paper: "shared
//!   buffers can be easily synchronized across nodes via cache
//!   invalidation").
//! * **Migration-based RPC** ([`rpc`]) — service code contexts live in a
//!   rack-shared registry; a client *migrates its thread* into the
//!   service context (address-space switch, no thread switch, no
//!   messaging), paying a context-crossing cost instead of a network
//!   round-trip. Shared contexts also enable fast process migration and
//!   scale-out (§3.5).
//! * **Replicated socket metadata** ([`socket_meta`]) — naming and
//!   destination addressing are kept in per-node replicas synchronized
//!   through the shared op log, so connection establishment is fast and
//!   survives node failures.
//! * **The baseline** ([`netstack`]) — a faithfully costed TCP/IP-over-
//!   Ethernet path (buffer allocation, data copies, per-layer stack
//!   processing, segmentation) used as the comparison point for
//!   Figure 4.

pub mod channel;
pub mod netstack;
pub mod retry;
pub mod rpc;
pub mod shm_buf;
pub mod socket_meta;

pub use channel::{FlacChannel, FlacEndpoint};
pub use netstack::{NetConfig, NetEndpoint, NetPair};
pub use retry::{MsgRpcClient, MsgRpcServer};
pub use rpc::{RpcRegistry, RpcService};
pub use shm_buf::ShmBufferPool;
pub use socket_meta::SocketRegistry;
