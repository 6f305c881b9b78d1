//! The redis-mini client, with latency measurement hooks.

use crate::resp::{Command, Reply};
use crate::server::RedisServer;
use crate::transport::Transport;
use rack_sim::{NodeCtx, SimError};
use std::sync::Arc;

/// A blocking-style client over any [`Transport`].
///
/// Replies are consumed from a receive buffer by frame offset, so a
/// server that batches many replies into one transport message (the
/// event loop's normal behaviour), or splits one reply across messages,
/// parses correctly: each [`RedisClient::recv_reply`] call yields
/// exactly the next reply frame.
#[derive(Debug)]
pub struct RedisClient<T: Transport> {
    node: Arc<NodeCtx>,
    transport: T,
    /// Reply bytes received but not yet consumed.
    rx_buf: Vec<u8>,
    /// Consumed-frame offset into `rx_buf`.
    rx_pos: usize,
}

impl<T: Transport> RedisClient<T> {
    /// A client on `node` over `transport`.
    pub fn new(node: Arc<NodeCtx>, transport: T) -> Self {
        RedisClient {
            node,
            transport,
            rx_buf: Vec::new(),
            rx_pos: 0,
        }
    }

    /// The node running the client.
    pub fn node(&self) -> &Arc<NodeCtx> {
        &self.node
    }

    /// Raw transport access (tests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Encode and send one command.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send_command(&mut self, cmd: &Command) -> Result<(), SimError> {
        self.transport.send(&cmd.encode())
    }

    /// Encode `cmds` back-to-back into one transport message — RESP
    /// pipelining. The server answers every frame; collect the replies
    /// with one [`RedisClient::recv_reply`] call per command, in order.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; sends nothing for an empty slice.
    pub fn send_pipelined(&mut self, cmds: &[Command]) -> Result<(), SimError> {
        if cmds.is_empty() {
            return Ok(());
        }
        let mut msg = Vec::new();
        for cmd in cmds {
            msg.extend_from_slice(&cmd.encode());
        }
        self.transport.send(&msg)
    }

    /// Receive and parse the next reply (non-blocking): consume a
    /// buffered frame if one is complete, otherwise pull more transport
    /// messages until a frame completes or the transport would block.
    ///
    /// # Errors
    ///
    /// [`SimError::WouldBlock`] if no complete reply is available (any
    /// partial frame stays buffered); parse failures are protocol errors.
    pub fn recv_reply(&mut self) -> Result<Reply, SimError> {
        loop {
            match Reply::parse_frame(&self.rx_buf[self.rx_pos..]) {
                Ok(Some((reply, consumed))) => {
                    self.rx_pos += consumed;
                    if self.rx_pos == self.rx_buf.len() {
                        self.rx_buf.clear();
                        self.rx_pos = 0;
                    }
                    return Ok(reply);
                }
                Ok(None) => {}
                Err(e) => {
                    // A desynced reply stream cannot be re-framed.
                    self.rx_buf.clear();
                    self.rx_pos = 0;
                    return Err(SimError::Protocol(format!("bad reply from server: {e}")));
                }
            }
            if self.rx_pos > 0 {
                self.rx_buf.drain(..self.rx_pos);
                self.rx_pos = 0;
            }
            let bytes = self.transport.try_recv()?;
            self.rx_buf.extend_from_slice(&bytes);
        }
    }

    /// Reply bytes buffered but not yet consumed (a test probe: only the
    /// client's tests read it).
    pub fn buffered_reply_bytes(&self) -> usize {
        self.rx_buf.len() - self.rx_pos
    }
}

/// One measured request in a cooperative simulation: send the command,
/// step the server, collect the reply. Returns the reply and the
/// client-observed latency in simulated nanoseconds — the quantity
/// Figure 4 plots.
///
/// # Errors
///
/// Propagates transport/server errors; [`SimError::WouldBlock`] if the
/// server produced no reply.
pub fn request_stepped<T: Transport>(
    client: &mut RedisClient<T>,
    server: &mut RedisServer<T>,
    cmd: &Command,
) -> Result<(Reply, u64), SimError> {
    let start = client.node().clock().now();
    client.send_command(cmd)?;
    // The server cannot start before the request is visible to it.
    server
        .node()
        .clock()
        .advance_to(client.node().clock().now());
    server.poll()?;
    let reply = client.recv_reply()?;
    // Symmetrically, the reply is not visible before the server sent it
    // (ring/netstack timestamps enforce most of this; advance_to covers
    // the cooperative scheduling gap).
    client
        .node()
        .clock()
        .advance_to(server.node().clock().now());
    let latency = client.node().clock().now() - start;
    Ok((reply, latency))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flacdk::alloc::GlobalAllocator;
    use flacos_ipc::channel::FlacChannel;
    use flacos_ipc::netstack::{NetConfig, NetPair};
    use rack_sim::{Rack, RackConfig};

    fn rack() -> Rack {
        Rack::new(RackConfig::small_test().with_global_mem(32 << 20))
    }

    #[test]
    fn batched_and_split_replies_consumed_by_offset() {
        // Regression: recv_reply used to parse one reply per transport
        // message and silently drop the rest of a batch.
        let rack = rack();
        let alloc = GlobalAllocator::new(rack.global().clone());
        let (mut sep, cep) =
            FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(1)).unwrap();
        let mut client = RedisClient::new(rack.node(1), cep);

        // One message carrying three replies...
        let mut batch = Vec::new();
        batch.extend_from_slice(&Reply::Simple("OK".into()).encode());
        batch.extend_from_slice(&Reply::Integer(42).encode());
        batch.extend_from_slice(&Reply::Bulk(b"abc".to_vec()).encode());
        sep.send(&batch).unwrap();
        assert_eq!(client.recv_reply().unwrap(), Reply::Simple("OK".into()));
        assert_eq!(client.recv_reply().unwrap(), Reply::Integer(42));
        assert_eq!(client.recv_reply().unwrap(), Reply::Bulk(b"abc".to_vec()));
        assert!(matches!(client.recv_reply(), Err(SimError::WouldBlock)));

        // ...and one reply split across two messages.
        let wire = Reply::Bulk(vec![9u8; 200]).encode();
        let (head, tail) = wire.split_at(50);
        sep.send(head).unwrap();
        assert!(matches!(client.recv_reply(), Err(SimError::WouldBlock)));
        assert_eq!(client.buffered_reply_bytes(), 50);
        sep.send(tail).unwrap();
        assert_eq!(client.recv_reply().unwrap(), Reply::Bulk(vec![9u8; 200]));
        assert_eq!(client.buffered_reply_bytes(), 0);
    }

    #[test]
    fn set_get_roundtrip_over_ipc() {
        let rack = rack();
        let alloc = GlobalAllocator::new(rack.global().clone());
        let (sep, cep) =
            FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(1)).unwrap();
        let mut server = RedisServer::new(rack.node(0), sep);
        let mut client = RedisClient::new(rack.node(1), cep);

        let (reply, lat_set) = request_stepped(
            &mut client,
            &mut server,
            &Command::Set {
                key: b"city".to_vec(),
                value: b"boston".to_vec(),
            },
        )
        .unwrap();
        assert_eq!(reply, Reply::Simple("OK".into()));
        assert!(lat_set > 0);

        let (reply, lat_get) = request_stepped(
            &mut client,
            &mut server,
            &Command::Get {
                key: b"city".to_vec(),
            },
        )
        .unwrap();
        assert_eq!(reply, Reply::Bulk(b"boston".to_vec()));
        assert!(lat_get > 0);
    }

    #[test]
    fn set_get_roundtrip_over_netstack() {
        let rack = rack();
        let (sep, cep) = NetPair::connect(rack.node(0), rack.node(1), NetConfig::ten_gbe(), 0);
        let mut server = RedisServer::new(rack.node(0), sep);
        let mut client = RedisClient::new(rack.node(1), cep);
        let (reply, _) = request_stepped(
            &mut client,
            &mut server,
            &Command::Set {
                key: b"k".to_vec(),
                value: vec![9u8; 4096],
            },
        )
        .unwrap();
        assert_eq!(reply, Reply::Simple("OK".into()));
        let (reply, _) = request_stepped(
            &mut client,
            &mut server,
            &Command::Get { key: b"k".to_vec() },
        )
        .unwrap();
        assert_eq!(reply, Reply::Bulk(vec![9u8; 4096]));
    }

    #[test]
    fn ipc_beats_netstack_on_latency() {
        // The headline comparison, in miniature: the same SET over both
        // transports; FlacOS IPC must be faster.
        let rack = rack();
        let alloc = GlobalAllocator::new(rack.global().clone());
        let (sep, cep) =
            FlacChannel::create(rack.global(), alloc, rack.node(0), rack.node(1)).unwrap();
        let mut ipc_server = RedisServer::new(rack.node(0), sep);
        let mut ipc_client = RedisClient::new(rack.node(1), cep);

        let rack2 = Rack::new(RackConfig::small_test().with_global_mem(32 << 20));
        let (nsep, ncep) = NetPair::connect(rack2.node(0), rack2.node(1), NetConfig::ten_gbe(), 0);
        let mut net_server = RedisServer::new(rack2.node(0), nsep);
        let mut net_client = RedisClient::new(rack2.node(1), ncep);

        let cmd = Command::Set {
            key: b"x".to_vec(),
            value: vec![1u8; 64],
        };
        let (_, ipc_lat) = request_stepped(&mut ipc_client, &mut ipc_server, &cmd).unwrap();
        let (_, net_lat) = request_stepped(&mut net_client, &mut net_server, &cmd).unwrap();
        assert!(
            ipc_lat < net_lat,
            "FlacOS IPC ({ipc_lat} ns) must beat TCP/IP ({net_lat} ns)"
        );
    }
}
