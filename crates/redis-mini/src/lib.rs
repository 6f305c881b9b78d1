//! # redis-mini — the paper's application workload
//!
//! A protocol-faithful miniature Redis: RESP2 wire format ([`resp`]),
//! an in-memory keyspace ([`store`]), and a server/client pair
//! ([`server`], [`client`]) that run over *either* transport the paper
//! compares in Figure 4 — FlacOS zero-copy IPC or the TCP/IP network
//! baseline — via the [`transport::Transport`] abstraction.
//!
//! The evaluation drives SET and GET at two request sizes and measures
//! client-observed latency; see `bench::fig4` and `figures -- fig4`.
//! The heavy-traffic serving benchmark
//! (`bench::serve_scale`, `figures -- serve`) drives the same server with an
//! open-loop multi-connection load via the [`server`] event loop's RESP
//! pipelining and batched replies.

pub mod client;
pub mod resp;
pub mod server;
pub mod store;
pub mod transport;

pub use client::RedisClient;
pub use resp::{Command, Reply, RespError};
pub use server::{RedisServer, ServerStats};
pub use store::KeyspaceStore;
pub use transport::Transport;
