//! Retry-with-backoff and timeout handling for cross-node operations.
//!
//! The fault-storm campaigns (rack-sim `storm`) sever links and crash
//! nodes *mid-call*. The migration-based RPC path ([`crate::rpc`]) rides
//! on shared memory and shrugs those off, but the message-fabric path
//! does not: a request or reply in flight across a failed link is simply
//! lost. This module adds the two mechanisms the paper's §3.5 relies on
//! for graceful degradation:
//!
//! * Retry with exponential backoff ([`MAX_ATTEMPTS`] attempts, from
//!   [`BASE_BACKOFF_NS`] doubling up to 1 ms) with the wait charged to
//!   the caller's simulated clock, retrying only the error classes
//!   injected faults produce (link down, node down, timeout).
//! * [`MsgRpcClient`] / [`MsgRpcServer`] — a message-based RPC with
//!   simulated-time timeouts and server-side duplicate suppression: each
//!   call carries a client-unique id, the server caches the reply per
//!   id, and a retried request re-sends the cached reply **without
//!   re-executing the handler**. That is the "no double-delivery"
//!   invariant the rack fault-storm campaign checks (`figures storm`).
//!
//! Because the simulator is cooperative (no background threads), the
//! client's call path takes a `pump` closure that gives the caller a
//! chance to run the server (and to inject/repair faults mid-call in
//! tests) between the request send and the reply poll.

use rack_sim::{Counter, NodeCtx, NodeId, SimError};
use std::collections::HashMap;
use std::sync::Arc;

/// Attempts per call, the first try included.
pub const MAX_ATTEMPTS: u32 = 5;
/// Backoff before the first retry, in simulated ns; each further retry
/// waits twice as long, up to 1 ms.
pub const BASE_BACKOFF_NS: u64 = 10_000;
const BACKOFF_MULTIPLIER: u64 = 2;
const MAX_BACKOFF_NS: u64 = 1_000_000;

/// Backoff charged before attempt number `attempt` (1-based retries;
/// attempt 0 is the initial try and waits nothing).
fn backoff_ns(attempt: u32) -> u64 {
    if attempt == 0 {
        return 0;
    }
    let mut b = BASE_BACKOFF_NS;
    for _ in 1..attempt {
        b = b.saturating_mul(BACKOFF_MULTIPLIER);
        if b >= MAX_BACKOFF_NS {
            return MAX_BACKOFF_NS;
        }
    }
    b.min(MAX_BACKOFF_NS)
}

/// Whether an error is a transient fabric condition worth retrying, as
/// opposed to a programming error that will never succeed.
fn is_transient(err: &SimError) -> bool {
    matches!(
        err,
        SimError::LinkDown { .. }
            | SimError::NodeDown { .. }
            | SimError::Timeout { .. }
            | SimError::WouldBlock
    )
}

const CALL_HEADER: usize = 10; // call id (8) + reply port (2)
const REPLY_HEADER: usize = 8; // call id

/// Server side of the message-fabric RPC: executes each distinct call id
/// exactly once and re-sends cached replies for retried requests.
#[derive(Debug)]
pub struct MsgRpcServer {
    node: Arc<NodeCtx>,
    port: u16,
    replies: HashMap<u64, Vec<u8>>,
    executed: u64,
    dup_suppressed: u64,
    replies_lost: u64,
    // Held counter handles for the per-request serve path, lazily fetched
    // so an idle server registers nothing (matching the old one-shot
    // `registry().add` behaviour in snapshots).
    ctr_dups: Option<Counter>,
    ctr_served: Option<Counter>,
    ctr_replies_lost: Option<Counter>,
}

impl MsgRpcServer {
    /// A server draining requests addressed to `port` on `node`.
    pub fn new(node: Arc<NodeCtx>, port: u16) -> Self {
        MsgRpcServer {
            node,
            port,
            replies: HashMap::new(),
            executed: 0,
            dup_suppressed: 0,
            replies_lost: 0,
            ctr_dups: None,
            ctr_served: None,
            ctr_replies_lost: None,
        }
    }

    /// How many distinct calls the handler actually executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// How many retried requests were answered from the reply cache.
    pub fn dup_suppressed(&self) -> u64 {
        self.dup_suppressed
    }

    /// How many replies were lost to a down link/node at send time (the
    /// client's timeout+retry path recovers these).
    pub fn replies_lost(&self) -> u64 {
        self.replies_lost
    }

    /// Serve at most one pending request; `Ok(false)` when the queue is
    /// empty. A reply that cannot be sent (link or peer down) is counted
    /// as lost but the call stays cached, so the client's retry gets it.
    ///
    /// # Errors
    ///
    /// Fails when this node is down or a request is malformed.
    pub fn serve_once(
        &mut self,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
    ) -> Result<bool, SimError> {
        let msg = match self.node.try_recv(self.port) {
            Ok(m) => m,
            Err(SimError::WouldBlock) => return Ok(false),
            Err(e) => return Err(e),
        };
        if msg.payload.len() < CALL_HEADER {
            return Err(SimError::Protocol("rpc request shorter than header".into()));
        }
        let call_id = u64::from_le_bytes(msg.payload[..8].try_into().expect("sized"));
        let reply_port = u16::from_le_bytes(msg.payload[8..10].try_into().expect("sized"));
        let node = &self.node;
        let body = if let Some(cached) = self.replies.get(&call_id) {
            self.dup_suppressed += 1;
            self.ctr_dups
                .get_or_insert_with(|| node.stats().registry().counter("ipc", "rpc_dups"))
                .incr();
            cached.clone()
        } else {
            let out = handler(&msg.payload[CALL_HEADER..]);
            self.executed += 1;
            self.ctr_served
                .get_or_insert_with(|| node.stats().registry().counter("ipc", "rpc_served"))
                .incr();
            self.replies.insert(call_id, out.clone());
            out
        };
        let mut reply = call_id.to_le_bytes().to_vec();
        reply.extend_from_slice(&body);
        match self.node.send(msg.from, reply_port, reply) {
            Ok(_) => Ok(true),
            Err(SimError::LinkDown { .. } | SimError::NodeDown { .. }) => {
                self.replies_lost += 1;
                self.ctr_replies_lost
                    .get_or_insert_with(|| node.stats().registry().counter("ipc", "replies_lost"))
                    .incr();
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    /// Serve every pending request; returns how many were served.
    ///
    /// # Errors
    ///
    /// Propagates [`MsgRpcServer::serve_once`] errors.
    pub fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize, SimError> {
        let mut served = 0;
        while self.serve_once(handler)? {
            served += 1;
        }
        Ok(served)
    }
}

/// Client side of the message-fabric RPC: at-most-once execution with
/// simulated-time timeouts and retry with backoff.
#[derive(Debug)]
pub struct MsgRpcClient {
    node: Arc<NodeCtx>,
    server: NodeId,
    port: u16,
    reply_port: u16,
    next_call_id: u64,
    /// How long (simulated ns) one attempt waits for a reply.
    pub timeout_ns: u64,
    /// Clock charge per empty reply poll.
    pub poll_ns: u64,
    // Held counter handles for the per-call path (lazily fetched; see
    // `MsgRpcServer` for why lazily).
    ctr_calls: Option<Counter>,
    ctr_retries: Option<Counter>,
    ctr_timeouts: Option<Counter>,
}

impl MsgRpcClient {
    /// A client on `node` calling `server`'s RPC port, receiving replies
    /// on `reply_port`. Call ids embed the client node id so ids from
    /// different clients never collide at the server.
    pub fn new(node: Arc<NodeCtx>, server: NodeId, port: u16, reply_port: u16) -> Self {
        let node_tag = (node.id().0 as u64) << 48;
        MsgRpcClient {
            node,
            server,
            port,
            reply_port,
            next_call_id: node_tag,
            timeout_ns: 50_000,
            poll_ns: 1_000,
            ctr_calls: None,
            ctr_retries: None,
            ctr_timeouts: None,
        }
    }

    /// One call with retry: send the request, let `pump` run the server
    /// (and any mid-call fault choreography), then poll for the reply
    /// until `timeout_ns`. Transient failures back off and retry, up to
    /// [`MAX_ATTEMPTS`] attempts, **with the same call id**, so the
    /// server's duplicate suppression guarantees at-most-once execution.
    ///
    /// # Errors
    ///
    /// The last transient error when attempts are exhausted (typically
    /// [`SimError::Timeout`]), or the first non-transient error.
    pub fn call_with_retry(
        &mut self,
        args: &[u8],
        pump: &mut dyn FnMut(u32) -> Result<(), SimError>,
    ) -> Result<Vec<u8>, SimError> {
        let call_id = self.next_call_id;
        self.next_call_id += 1;
        let node = self.node.clone();
        self.ctr_calls
            .get_or_insert_with(|| node.stats().registry().counter("ipc", "rpc_calls"))
            .incr();
        let mut last = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                node.charge(backoff_ns(attempt));
                self.ctr_retries
                    .get_or_insert_with(|| node.stats().registry().counter("ipc", "rpc_retries"))
                    .incr();
            }
            match self.attempt(call_id, args, attempt, pump) {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(SimError::Timeout { waited_ns: 0 }))
    }

    fn attempt(
        &mut self,
        call_id: u64,
        args: &[u8],
        attempt: u32,
        pump: &mut dyn FnMut(u32) -> Result<(), SimError>,
    ) -> Result<Vec<u8>, SimError> {
        let mut req = call_id.to_le_bytes().to_vec();
        req.extend_from_slice(&self.reply_port.to_le_bytes());
        req.extend_from_slice(args);
        self.node.send(self.server, self.port, req)?;
        pump(attempt)?;
        let mut waited = 0u64;
        loop {
            match self.node.try_recv(self.reply_port) {
                Ok(msg) => {
                    if msg.payload.len() < REPLY_HEADER {
                        return Err(SimError::Protocol("rpc reply shorter than header".into()));
                    }
                    let id = u64::from_le_bytes(msg.payload[..8].try_into().expect("sized"));
                    if id != call_id {
                        // A late reply from an earlier call: drop and keep
                        // polling for ours.
                        continue;
                    }
                    return Ok(msg.payload[REPLY_HEADER..].to_vec());
                }
                Err(SimError::WouldBlock) => {
                    if waited >= self.timeout_ns {
                        let node = &self.node;
                        self.ctr_timeouts
                            .get_or_insert_with(|| {
                                node.stats().registry().counter("ipc", "rpc_timeouts")
                            })
                            .incr();
                        return Err(SimError::Timeout { waited_ns: waited });
                    }
                    self.node.charge(self.poll_ns);
                    waited += self.poll_ns;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn rack() -> Rack {
        Rack::new(RackConfig::small_test())
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(backoff_ns(0), 0);
        assert_eq!(backoff_ns(1), 10_000);
        assert_eq!(backoff_ns(2), 20_000);
        assert_eq!(backoff_ns(3), 40_000);
        assert_eq!(backoff_ns(60), MAX_BACKOFF_NS, "capped, no overflow");
    }

    #[test]
    fn retry_helper_retries_transient_and_charges_backoff() {
        let rack = rack();
        let n0 = rack.node(0);
        let mut server = MsgRpcServer::new(rack.node(1), 7);
        let mut client = MsgRpcClient::new(n0.clone(), NodeId(1), 7, 8);
        let mut echo = |req: &[u8]| req.to_vec();
        let before = n0.clock().now();
        let out = client
            .call_with_retry(b"x", &mut |attempt| {
                if attempt < 2 {
                    return Err(SimError::LinkDown {
                        from: NodeId(0),
                        to: NodeId(1),
                    });
                }
                server.serve_once(&mut echo).map(|_| ())
            })
            .unwrap();
        assert_eq!(out, b"x");
        assert_eq!(server.executed(), 1);
        let waited = n0.clock().now() - before;
        assert!(
            waited >= backoff_ns(1) + backoff_ns(2),
            "backoff charged: {waited} ns"
        );
    }

    #[test]
    fn retry_helper_gives_up_on_non_transient() {
        let rack = rack();
        let mut client = MsgRpcClient::new(rack.node(0), NodeId(1), 7, 8);
        let mut calls = 0;
        let err = client
            .call_with_retry(b"y", &mut |_| {
                calls += 1;
                Err(SimError::Protocol("bad".into()))
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)));
        assert_eq!(calls, 1, "non-transient errors are not retried");
    }

    #[test]
    fn rpc_round_trip_executes_once() {
        let rack = rack();
        let mut server = MsgRpcServer::new(rack.node(1), 7);
        let mut client = MsgRpcClient::new(rack.node(0), NodeId(1), 7, 8);
        let out = client
            .call_with_retry(b"ping", &mut |_| {
                let mut echo = |req: &[u8]| {
                    let mut r = b"pong:".to_vec();
                    r.extend_from_slice(req);
                    r
                };
                server.serve_once(&mut echo).map(|_| ())
            })
            .unwrap();
        assert_eq!(out, b"pong:ping");
        assert_eq!(server.executed(), 1);
        assert_eq!(server.dup_suppressed(), 0);
    }

    #[test]
    fn lost_reply_times_out_then_retry_is_dup_suppressed() {
        // Forward link fine, reply link severed: the handler runs, the
        // reply is lost, the client times out and retries with the same
        // call id; the server answers from cache without re-executing.
        let rack = rack();
        let faults = rack.faults().clone();
        let mut server = MsgRpcServer::new(rack.node(1), 7);
        let mut client = MsgRpcClient::new(rack.node(0), NodeId(1), 7, 8);
        faults.fail_link(NodeId(1), NodeId(0), 0);
        let mut handler = |_req: &[u8]| b"done".to_vec();
        let out = client
            .call_with_retry(b"work", &mut |attempt| {
                if attempt == 1 {
                    faults.restore_link(NodeId(1), NodeId(0), 0);
                }
                server.serve_once(&mut handler).map(|_| ())
            })
            .unwrap();
        assert_eq!(out, b"done");
        assert_eq!(server.executed(), 1, "handler ran exactly once");
        assert_eq!(server.dup_suppressed(), 1, "retry answered from cache");
        assert_eq!(server.replies_lost(), 1);
    }

    #[test]
    fn attempts_exhausted_surfaces_timeout() {
        let rack = rack();
        let faults = rack.faults().clone();
        let mut server = MsgRpcServer::new(rack.node(1), 7);
        let mut client = MsgRpcClient::new(rack.node(0), NodeId(1), 7, 8);
        faults.fail_link(NodeId(1), NodeId(0), 0); // never restored
        let mut handler = |_req: &[u8]| Vec::new();
        let mut attempts = 0;
        let err = client
            .call_with_retry(b"x", &mut |_| {
                attempts += 1;
                server.serve_once(&mut handler).map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "got {err:?}");
        assert_eq!(attempts, MAX_ATTEMPTS);
        assert_eq!(server.executed(), 1, "every retry answered from cache");
        assert_eq!(server.dup_suppressed(), u64::from(MAX_ATTEMPTS) - 1);
    }
}
