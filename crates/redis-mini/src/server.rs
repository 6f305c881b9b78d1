//! The redis-mini server: a multi-connection event loop with RESP
//! pipelining and batched reply writes.
//!
//! Each connection owns a receive buffer that accumulates transport
//! messages; [`RedisServer::poll`] drains every connection, parses *all*
//! complete frames out of the buffer (advancing by the consumed offset —
//! a message carrying N pipelined commands is served N times, and a
//! frame split across two messages is reassembled), executes them, and
//! flushes the concatenated replies back as one batched transport write
//! per connection per poll. Transport backpressure ([`SimError::WouldBlock`]
//! from `send`) parks the unsent reply bytes in a per-connection pending
//! buffer that is retried on the next poll; while pending replies exceed
//! a high-water mark the connection stops executing new frames, so an
//! open-loop overload degrades into queueing instead of unbounded memory.
//!
//! Protocol errors desynchronize a byte stream (the frame boundary is
//! lost), so a malformed frame is answered with a RESP error and the
//! rest of that connection's receive buffer is discarded — the moral
//! equivalent of real Redis closing the connection.

use crate::resp::{Command, Reply};
use crate::store::KeyspaceStore;
use crate::transport::Transport;
use rack_sim::{NodeCtx, SimError};
use std::sync::Arc;

/// Reply bytes are flushed in transport messages of at most this size,
/// so one giant batch cannot demand an equally giant zero-copy segment.
pub const REPLY_CHUNK_BYTES: usize = 64 << 10;

/// When a connection's unsent replies exceed this, the server stops
/// executing its queued frames until the transport drains (backpressure).
pub const TX_HIGH_WATER: usize = 1 << 20;

/// Event-loop counters (per server, across all connections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Command frames executed.
    pub frames: u64,
    /// Batched reply messages written.
    pub reply_batches: u64,
    /// `WouldBlock` events on reply flush (transport backpressure).
    pub backpressure: u64,
    /// Malformed frames answered with a RESP error (buffer discarded).
    pub protocol_errors: u64,
}

/// One served connection: its transport plus framing state.
#[derive(Debug)]
struct Conn<T: Transport> {
    transport: T,
    /// Received-but-unparsed bytes (tail may be a partial frame).
    rx: Vec<u8>,
    /// Parse offset into `rx` (consumed frames; compacted each poll).
    rx_pos: usize,
    /// Encoded replies not yet accepted by the transport.
    tx_pending: Vec<u8>,
}

impl<T: Transport> Conn<T> {
    fn new(transport: T) -> Self {
        Conn {
            transport,
            rx: Vec::new(),
            rx_pos: 0,
            tx_pending: Vec::new(),
        }
    }
}

/// A single-threaded redis-mini server multiplexing any number of
/// transport connections.
#[derive(Debug)]
pub struct RedisServer<T: Transport> {
    node: Arc<NodeCtx>,
    conns: Vec<Conn<T>>,
    store: KeyspaceStore,
    served: u64,
    stats: ServerStats,
}

impl<T: Transport> RedisServer<T> {
    /// Serve on a single `transport` from `node`.
    pub fn new(node: Arc<NodeCtx>, transport: T) -> Self {
        Self::with_connections(node, vec![transport])
    }

    /// Serve `transports` (one event loop over all of them) from `node`.
    pub fn with_connections(node: Arc<NodeCtx>, transports: Vec<T>) -> Self {
        RedisServer {
            node,
            conns: transports.into_iter().map(Conn::new).collect(),
            store: KeyspaceStore::new(),
            served: 0,
            stats: ServerStats::default(),
        }
    }

    /// One event-loop iteration: for every connection, retry pending
    /// reply flushes, drain arrived messages into the receive buffer,
    /// execute every complete frame (pipelining), and write the batched
    /// replies. Returns the number of command frames served this poll.
    ///
    /// # Errors
    ///
    /// Transport failures other than backpressure are propagated;
    /// malformed requests are answered with a RESP error instead of
    /// failing the server.
    pub fn poll(&mut self) -> Result<usize, SimError> {
        let mut served = 0;
        for i in 0..self.conns.len() {
            served += Self::poll_conn(
                &self.node,
                &mut self.store,
                &mut self.stats,
                &mut self.conns[i],
            )?;
        }
        self.served += served as u64;
        Ok(served)
    }

    fn poll_conn(
        node: &Arc<NodeCtx>,
        store: &mut KeyspaceStore,
        stats: &mut ServerStats,
        conn: &mut Conn<T>,
    ) -> Result<usize, SimError> {
        // 1. Retry replies a previous poll could not send.
        Self::flush_replies(stats, conn)?;

        // 2. Drain every arrived message into the receive buffer.
        loop {
            match conn.transport.try_recv() {
                Ok(msg) => conn.rx.extend_from_slice(&msg),
                Err(SimError::WouldBlock) => break,
                Err(e) => return Err(e),
            }
        }

        // 3. Parse-all-complete-frames: answer each frame in the buffer,
        //    not just the first one per message.
        let mut served = 0;
        while conn.tx_pending.len() < TX_HIGH_WATER {
            match Command::parse_frame(&conn.rx[conn.rx_pos..]) {
                Ok(Some((cmd, consumed))) => {
                    conn.rx_pos += consumed;
                    let reply = store.execute(node, cmd);
                    conn.tx_pending.extend_from_slice(&reply.encode());
                    stats.frames += 1;
                    served += 1;
                }
                Ok(None) => break, // partial tail: wait for the next message
                Err(e) => {
                    // Frame boundary lost: answer with an error and drop
                    // the rest of the stream (see module docs).
                    conn.tx_pending
                        .extend_from_slice(&Reply::Error(format!("ERR {e}")).encode());
                    stats.protocol_errors += 1;
                    served += 1;
                    conn.rx.clear();
                    conn.rx_pos = 0;
                    break;
                }
            }
        }
        if conn.rx_pos > 0 {
            conn.rx.drain(..conn.rx_pos);
            conn.rx_pos = 0;
        }

        // 4. Batched reply write (one message per chunk, not per frame).
        Self::flush_replies(stats, conn)?;
        Ok(served)
    }

    /// Push pending reply bytes to the transport in [`REPLY_CHUNK_BYTES`]
    /// messages until drained or the transport pushes back.
    fn flush_replies(stats: &mut ServerStats, conn: &mut Conn<T>) -> Result<(), SimError> {
        while !conn.tx_pending.is_empty() {
            let chunk = conn.tx_pending.len().min(REPLY_CHUNK_BYTES);
            match conn.transport.send(&conn.tx_pending[..chunk]) {
                Ok(()) => {
                    conn.tx_pending.drain(..chunk);
                    stats.reply_batches += 1;
                }
                Err(SimError::WouldBlock) => {
                    stats.backpressure += 1;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Total requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Event-loop counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The backing keyspace (inspection).
    pub fn store(&self) -> &KeyspaceStore {
        &self.store
    }

    /// The node running the server.
    pub fn node(&self) -> &Arc<NodeCtx> {
        &self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RedisClient;
    use flacdk::alloc::GlobalAllocator;
    use flacos_ipc::channel::FlacChannel;
    use rack_sim::{Rack, RackConfig};

    fn pair(
        rack: &Rack,
    ) -> (
        flacos_ipc::channel::FlacEndpoint,
        flacos_ipc::channel::FlacEndpoint,
    ) {
        let alloc = GlobalAllocator::new(rack.global().clone());
        FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(1)).unwrap()
    }

    #[test]
    fn serves_requests_and_reports_errors() {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let (server_ep, client_ep) = pair(&rack);
        let mut server = RedisServer::new(rack.node(0), server_ep);
        let mut client = RedisClient::new(rack.node(1), client_ep);

        client
            .send_command(&Command::Set {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            })
            .unwrap();
        client.transport_mut().send(b"garbage request").unwrap();
        assert_eq!(server.poll().unwrap(), 2);
        assert_eq!(client.recv_reply().unwrap(), Reply::Simple("OK".into()));
        assert!(matches!(client.recv_reply().unwrap(), Reply::Error(_)));
        assert_eq!(server.served(), 2);
        assert_eq!(server.store().len(), 1);
        assert_eq!(server.stats().protocol_errors, 1);
    }

    #[test]
    fn pipelined_commands_in_one_message_are_all_served() {
        // Regression: the old poll() threw away the consumed offset and
        // silently served only the first command per message.
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let (server_ep, client_ep) = pair(&rack);
        let mut server = RedisServer::new(rack.node(0), server_ep);
        let mut client = RedisClient::new(rack.node(1), client_ep);

        client
            .send_pipelined(&[
                Command::Set {
                    key: b"a".to_vec(),
                    value: b"1".to_vec(),
                },
                Command::Incr { key: b"n".to_vec() },
                Command::Get { key: b"a".to_vec() },
            ])
            .unwrap();
        assert_eq!(server.poll().unwrap(), 3);
        assert_eq!(client.recv_reply().unwrap(), Reply::Simple("OK".into()));
        assert_eq!(client.recv_reply().unwrap(), Reply::Integer(1));
        assert_eq!(client.recv_reply().unwrap(), Reply::Bulk(b"1".to_vec()));
        assert_eq!(server.served(), 3);
        // All three replies travelled in one batched message.
        assert_eq!(server.stats().reply_batches, 1);
    }

    #[test]
    fn frame_split_across_messages_is_reassembled() {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let (server_ep, client_ep) = pair(&rack);
        let mut server = RedisServer::new(rack.node(0), server_ep);
        let mut client = RedisClient::new(rack.node(1), client_ep);

        let wire = Command::Set {
            key: b"split".to_vec(),
            value: vec![7u8; 100],
        }
        .encode();
        let (head, tail) = wire.split_at(wire.len() / 2);
        client.transport_mut().send(head).unwrap();
        assert_eq!(server.poll().unwrap(), 0, "half a frame is not a request");
        client.transport_mut().send(tail).unwrap();
        assert_eq!(server.poll().unwrap(), 1);
        assert_eq!(client.recv_reply().unwrap(), Reply::Simple("OK".into()));
    }

    #[test]
    fn trailing_garbage_after_valid_command_is_rejected() {
        // Regression: trailing bytes after a valid frame used to be
        // silently accepted; now they are answered with a RESP error.
        let rack = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let (server_ep, client_ep) = pair(&rack);
        let mut server = RedisServer::new(rack.node(0), server_ep);
        let mut client = RedisClient::new(rack.node(1), client_ep);

        let mut wire = Command::Ping.encode();
        wire.extend_from_slice(b"!!!trailing junk");
        client.transport_mut().send(&wire).unwrap();
        assert_eq!(server.poll().unwrap(), 2, "PONG plus one error reply");
        assert_eq!(client.recv_reply().unwrap(), Reply::Simple("PONG".into()));
        assert!(matches!(client.recv_reply().unwrap(), Reply::Error(_)));
    }

    #[test]
    fn multiple_connections_are_multiplexed() {
        let rack = Rack::new(RackConfig::n_node(3).with_global_mem(64 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let (sep1, cep1) =
            FlacChannel::create(rack.global(), alloc.clone(), rack.node(0), rack.node(1)).unwrap();
        let (sep2, cep2) =
            FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(2)).unwrap();
        let mut server = RedisServer::with_connections(rack.node(0), vec![sep1, sep2]);
        let mut c1 = RedisClient::new(rack.node(1), cep1);
        let mut c2 = RedisClient::new(rack.node(2), cep2);

        c1.send_command(&Command::Set {
            key: b"from1".to_vec(),
            value: b"x".to_vec(),
        })
        .unwrap();
        c2.send_command(&Command::Set {
            key: b"from2".to_vec(),
            value: b"y".to_vec(),
        })
        .unwrap();
        assert_eq!(server.poll().unwrap(), 2);
        assert_eq!(c1.recv_reply().unwrap(), Reply::Simple("OK".into()));
        assert_eq!(c2.recv_reply().unwrap(), Reply::Simple("OK".into()));
        assert_eq!(server.store().len(), 2);
    }
}
